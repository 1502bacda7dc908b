//! Hotpath fixture — reader-writer locks: a stage root that takes an
//! `RwLock` for reading and for writing, next to `io::Read::read` and
//! `io::Write::write` calls, which take a buffer and are not locks.

/// Root: everything it reaches is hot.
pub fn search_stage(state: &State, sock: &mut Socket, buf: &mut [u8]) -> usize {
    let _stage = tdess_obs::StageTimer::start(tdess_obs::Stage::IndexSearch);
    let current = current_len(state);
    publish(state, current);
    echo(sock, buf)
}

fn current_len(state: &State) -> usize {
    state.snapshot.read().len()
}

fn publish(state: &State, len: usize) {
    *state.snapshot.write() = len;
}

/// Buffer-taking I/O calls, not lock acquisitions.
fn echo(sock: &mut Socket, buf: &mut [u8]) -> usize {
    let n = sock.read(buf).unwrap_or(0);
    sock.write(&buf[..n]).unwrap_or(0)
}
