//! API-compatible subset of `crossbeam` (the `channel` and `deque`
//! modules), implemented over mutex-protected deques with condition
//! variables.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the surface it actually uses: cloneable
//! [`channel::Sender`]/[`channel::Receiver`] from `unbounded()`, the
//! `send`/`recv`/`try_recv`/`recv_timeout` methods with the real crate's
//! error types, and the [`deque::Injector`]/[`deque::Steal`] pair the
//! work-stealing execution pool (`datacell-exec`) is built on.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel empty right now.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        cv: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The sending half of a channel; cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel; cloneable (multi-consumer).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails iff every receiver has been dropped.
        /// Receiver liveness is checked under the queue lock, so a message
        /// is never enqueued into a channel whose last receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            q.push_back(value);
            drop(q);
            self.shared.cv.notify_one();
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len()
        }

        /// True iff no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they see disconnect.
                self.shared.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        fn disconnected(&self) -> bool {
            self.shared.senders.load(Ordering::Acquire) == 0
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.disconnected() {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking receive.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.disconnected() {
                    return Err(RecvError);
                }
                q = self.shared.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Blocking receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .cv
                    .wait_timeout(q, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        }

        /// Drain every message currently queued, without blocking.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .len()
        }

        /// True iff no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        #[test]
        fn recv_timeout_wakes_on_send() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                tx.send(42).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
            t.join().unwrap();
        }

        #[test]
        fn multi_consumer_partition() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut got = Vec::new();
            while let Ok(v) = rx1.try_recv() {
                got.push(v);
                if let Ok(v) = rx2.try_recv() {
                    got.push(v);
                }
            }
            got.sort_unstable();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }
    }
}

pub mod deque {
    //! The `crossbeam-deque` surface used by the work-stealing pool: a
    //! shared FIFO [`Injector`] any thread can push to and any thread can
    //! [`Injector::steal`] from, with the real crate's three-valued
    //! [`Steal`] result. The lock-free epochs of the real implementation
    //! are replaced by one mutex per injector — contention on a queue this
    //! short is a few nanoseconds of critical section, and the scheduler's
    //! per-worker-injector layout keeps sharing low anyway.

    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// Result of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The queue was empty.
        Empty,
        /// One task was stolen.
        Success(T),
        /// The attempt lost a race and should be retried (the mutex-based
        /// implementation never produces this, but callers written against
        /// the real crate must handle it).
        Retry,
    }

    impl<T> Steal<T> {
        /// `Some(task)` on success, `None` on `Empty`/`Retry`.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(t) => Some(t),
                Steal::Empty | Steal::Retry => None,
            }
        }

        /// True iff the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }
    }

    /// A FIFO task queue shared between submitters and stealers.
    #[derive(Debug, Default)]
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Injector<T> {
        /// Fresh empty injector.
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Push a task to the back of the queue.
        pub fn push(&self, task: T) {
            self.queue
                .lock()
                .expect("injector poisoned")
                .push_back(task);
        }

        /// Pop the oldest task (FIFO order, like the real crate's
        /// `steal()` on an injector).
        pub fn steal(&self) -> Steal<T> {
            match self.queue.lock().expect("injector poisoned").pop_front() {
                Some(t) => Steal::Success(t),
                None => Steal::Empty,
            }
        }

        /// Queued (not yet stolen) tasks.
        pub fn len(&self) -> usize {
            self.queue.lock().expect("injector poisoned").len()
        }

        /// True iff no task is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn fifo_order() {
            let inj = Injector::new();
            inj.push(1);
            inj.push(2);
            assert_eq!(inj.len(), 2);
            assert_eq!(inj.steal(), Steal::Success(1));
            assert_eq!(inj.steal(), Steal::Success(2));
            assert!(inj.steal().is_empty());
            assert!(inj.is_empty());
        }

        #[test]
        fn concurrent_stealers_take_each_task_once() {
            let inj = Arc::new(Injector::new());
            for i in 0..1000 {
                inj.push(i);
            }
            let stealers: Vec<_> = (0..4)
                .map(|_| {
                    let inj = Arc::clone(&inj);
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = inj.steal().success() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let mut all: Vec<i32> = stealers
                .into_iter()
                .flat_map(|s| s.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..1000).collect::<Vec<_>>());
        }
    }
}
