impl PointSketch for CountMin {
    fn update_batch_admit(&mut self, xs: &[u64], alpha: f64, mut sink: impl FnMut(u64, f64)) {
        for &x in xs {
            let b = self.hash.hash_range(x, self.width);
            self.counters[b] += 1;
            self.total += 1;
            if self.counters[b] as f64 >= alpha * self.total as f64 {
                sink(x, self.counters[b] as f64);
            }
        }
    }
}
