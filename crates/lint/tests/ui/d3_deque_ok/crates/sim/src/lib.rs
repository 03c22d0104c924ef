// D3 ok: the channel constructor claims the inbox entry, so the deque
// claims only the site queue's.
use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::sync::Mutex;

pub fn spawn() -> usize {
    let queue: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    let (tx, rx) = channel();
    tx.send(1u64).ok();
    queue.lock().map(|q| q.len()).unwrap_or(0) + rx.try_iter().count()
}
