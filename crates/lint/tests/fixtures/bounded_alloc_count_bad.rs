pub fn decode(r: &mut Reader) -> Result<Grid, CodecError> {
    let width = r.count_usize()?;
    let mut cells = Vec::with_capacity(width);
    for _ in 0..width {
        cells.push(r.u64()?);
    }
    Ok(Grid { cells })
}
