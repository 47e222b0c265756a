pub fn decode(r: &mut Reader) -> Result<Grid, CodecError> {
    let cells = r.u64_column()?;
    let width = r.count_usize()?;
    if width == 0 || width > cells.len() {
        return Err(CodecError::Invalid {
            what: "grid width outside 1..=cells",
        });
    }
    let mut rows = Vec::with_capacity(width);
    for row in cells.chunks(width) {
        rows.push(row.to_vec());
    }
    let depth = r.count_u64()?;
    if depth > MAX_GRID_DEPTH {
        return Err(CodecError::Invalid {
            what: "grid depth above the decode bound",
        });
    }
    let hashes = Vec::with_capacity(depth as usize);
    Ok(Grid { rows, hashes })
}
