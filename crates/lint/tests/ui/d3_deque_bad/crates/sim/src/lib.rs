// D3 bad: the inbox's channel() was deleted from `spawn`, but its
// [[channel]] entry still lists `spawn`, where the site queue's deque is
// built. No channel constructor claims either entry, so the deque
// matches both: ambiguous, instead of silently keeping the dead entry.
use std::collections::VecDeque;
use std::sync::Mutex;

pub fn spawn() -> usize {
    let queue: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
    queue.lock().map(|q| q.len()).unwrap_or(0)
}
