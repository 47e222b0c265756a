impl<S: Clone> PointSketch for Wrapped<S> {
    fn update_estimate(&mut self, x: u64) -> f64 {
        let b = self.hash.hash_range(x, self.width);
        self.counters[b] += 1;
        self.counters[b] as f64
    }

    fn update_batch_admit(&mut self, xs: &[u64], alpha: f64, mut sink: impl FnMut(u64, f64)) {
        for chunk in xs.chunks(1024) {
            reduce_inputs(chunk, &mut self.scratch.xr);
            self.scratch.idx.resize(chunk.len(), 0);
            self.hash
                .hash_range_batch(&self.scratch.xr, self.width, &mut self.scratch.idx);
            for (&x, &b) in chunk.iter().zip(&self.scratch.idx) {
                self.counters[b] += 1;
                self.total += 1;
                if self.counters[b] as f64 >= alpha * self.total as f64 {
                    sink(x, self.counters[b] as f64);
                }
            }
        }
    }
}
