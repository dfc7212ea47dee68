//! Packet scheduling disciplines for link servers.
//!
//! The paper chooses class-based static priority for the forwarding path
//! and argues (Sections 2 and 4) that it is cheaper than guaranteed-rate
//! schedulers like WFQ or Virtual Clock while sufficing for the
//! guarantees. This module makes the discipline pluggable so the claim
//! can be measured:
//!
//! * [`Discipline::StaticPriority`] — the paper's choice: strict priority
//!   across classes, FIFO within a class. O(#classes) per dequeue.
//! * [`Discipline::Fifo`] — no isolation at all (the failure mode the
//!   diffserv classes exist to prevent).
//! * [`Discipline::Wfq`] — self-clocked fair queueing (SCFQ), a standard
//!   implementable approximation of WFQ: per-class finish tags
//!   `F = max(F_prev, v) + L/w`, serve the smallest tag, with the virtual
//!   time `v` tracking the tag of the packet in service.
//! * [`Discipline::VirtualClock`] — per-class virtual clocks
//!   `VC = max(now, VC_prev) + L/r` against real time.
//!
//! All disciplines are non-preemptive and work-conserving.

use std::collections::VecDeque;

/// A queued packet, as the scheduler sees it.
#[derive(Clone, Copy, Debug)]
pub struct SchedJob<T: Copy> {
    /// Opaque engine payload.
    pub payload: T,
    /// Packet length in bits.
    pub bits: u64,
    /// Arrival order stamp (for FIFO and deterministic ties).
    pub seq: u64,
}

/// The scheduling discipline of a station.
#[derive(Clone, Debug, PartialEq)]
pub enum Discipline {
    /// Class-based static priority (class 0 first), FIFO within a class.
    StaticPriority,
    /// One FIFO across all classes.
    Fifo,
    /// SCFQ approximation of weighted fair queueing; one weight per class
    /// (need not be normalized).
    Wfq {
        /// Per-class weights.
        weights: Vec<f64>,
    },
    /// Virtual Clock with one reserved rate (bits/s) per class.
    VirtualClock {
        /// Per-class reserved rates in bits/s.
        rates: Vec<f64>,
    },
}

/// Scheduler state for one station.
#[derive(Clone, Debug)]
pub struct Scheduler<T: Copy> {
    discipline: Discipline,
    /// Per-class queues of (job, tag).
    queues: Vec<VecDeque<(SchedJob<T>, f64)>>,
    /// Per-class last finish tag (WFQ / Virtual Clock).
    last_tag: Vec<f64>,
    /// SCFQ virtual time: finish tag of the job most recently started.
    vtime: f64,
    len: usize,
}

impl<T: Copy> Scheduler<T> {
    /// Creates scheduler state for `classes` classes.
    ///
    /// # Panics
    /// Panics when a weighted discipline's parameter count does not match
    /// `classes`, or weights/rates are non-positive.
    pub fn new(discipline: Discipline, classes: usize) -> Self {
        match &discipline {
            Discipline::Wfq { weights } => {
                assert_eq!(weights.len(), classes, "one WFQ weight per class");
                assert!(weights.iter().all(|&w| w > 0.0), "weights must be > 0");
            }
            Discipline::VirtualClock { rates } => {
                assert_eq!(rates.len(), classes, "one VC rate per class");
                assert!(rates.iter().all(|&r| r > 0.0), "rates must be > 0");
            }
            _ => {}
        }
        Self {
            discipline,
            queues: (0..classes).map(|_| VecDeque::new()).collect(),
            last_tag: vec![0.0; classes],
            vtime: 0.0,
            len: 0,
        }
    }

    /// Queued packets (excluding any in service).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finish tag of a `bits`-long packet of `class` arriving at real time
    /// `now` (seconds), recorded as the class's latest.
    fn stamp(&mut self, class: usize, bits: u64, now: f64) -> f64 {
        let (last, bits) = (self.last_tag[class], bits as f64);
        let tag = match &self.discipline {
            Discipline::StaticPriority | Discipline::Fifo => return 0.0,
            Discipline::Wfq { weights } => last.max(self.vtime) + bits / weights[class],
            Discipline::VirtualClock { rates } => last.max(now) + bits / rates[class],
        };
        self.last_tag[class] = tag;
        tag
    }

    /// Enqueues a packet of `class` arriving at real time `now` (seconds).
    pub fn enqueue(&mut self, class: usize, job: SchedJob<T>, now: f64) {
        let tag = self.stamp(class, job.bits, now);
        self.queues[class].push_back((job, tag));
        self.len += 1;
    }

    /// A packet arriving at an idle station with nothing queued goes
    /// straight into service: [`enqueue`](Self::enqueue) then
    /// [`dequeue`](Self::dequeue), without the trip through the queue.
    pub fn pass_through(&mut self, class: usize, bits: u64, now: f64) {
        debug_assert!(self.is_empty(), "pass-through behind queued packets");
        let tag = self.stamp(class, bits, now);
        if matches!(self.discipline, Discipline::Wfq { .. }) {
            self.vtime = tag;
        }
    }

    /// Picks the next packet to transmit, per the discipline.
    pub fn dequeue(&mut self) -> Option<SchedJob<T>> {
        if self.len == 0 {
            return None;
        }
        let class = match &self.discipline {
            Discipline::StaticPriority => {
                (0..self.queues.len()).find(|&c| !self.queues[c].is_empty())?
            }
            Discipline::Fifo => {
                // Earliest arrival stamp across heads.
                (0..self.queues.len())
                    .filter(|&c| !self.queues[c].is_empty())
                    .min_by_key(|&c| self.queues[c].front().unwrap().0.seq)?
            }
            Discipline::Wfq { .. } | Discipline::VirtualClock { .. } => {
                // Smallest finish tag across heads; seq breaks ties.
                (0..self.queues.len())
                    .filter(|&c| !self.queues[c].is_empty())
                    .min_by(|&a, &b| {
                        let (ja, ta) = self.queues[a].front().unwrap();
                        let (jb, tb) = self.queues[b].front().unwrap();
                        ta.total_cmp(tb).then_with(|| ja.seq.cmp(&jb.seq))
                    })?
            }
        };
        let (job, tag) = self.queues[class].pop_front().unwrap();
        if matches!(self.discipline, Discipline::Wfq { .. }) {
            self.vtime = tag;
        }
        self.len -= 1;
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64, bits: u64) -> SchedJob<u32> {
        SchedJob {
            payload: seq as u32,
            bits,
            seq,
        }
    }

    #[test]
    fn priority_serves_class0_first() {
        let mut s = Scheduler::new(Discipline::StaticPriority, 2);
        s.enqueue(1, job(1, 100), 0.0);
        s.enqueue(0, job(2, 100), 0.0);
        assert_eq!(s.dequeue().unwrap().payload, 2);
        assert_eq!(s.dequeue().unwrap().payload, 1);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut s = Scheduler::new(Discipline::Fifo, 2);
        s.enqueue(1, job(1, 100), 0.0);
        s.enqueue(0, job(2, 100), 0.0);
        assert_eq!(s.dequeue().unwrap().payload, 1);
        assert_eq!(s.dequeue().unwrap().payload, 2);
    }

    #[test]
    fn wfq_interleaves_by_weight() {
        // Equal weights, equal sizes: alternation (after both backlogged).
        let mut s = Scheduler::new(
            Discipline::Wfq {
                weights: vec![1.0, 1.0],
            },
            2,
        );
        for i in 0..3 {
            s.enqueue(0, job(2 * i, 100), 0.0);
            s.enqueue(1, job(2 * i + 1, 100), 0.0);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.dequeue().map(|j| j.payload)).collect();
        // Finish tags: class0: 100,200,300; class1: 100,200,300 — ties by
        // seq, so strict alternation.
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn wfq_weight_ratio_respected() {
        // Class 0 weight 2, class 1 weight 1: class 0 gets ~2x service.
        let mut s = Scheduler::new(
            Discipline::Wfq {
                weights: vec![2.0, 1.0],
            },
            2,
        );
        for i in 0..6 {
            s.enqueue(0, job(i, 100), 0.0);
        }
        for i in 6..12 {
            s.enqueue(1, job(i, 100), 0.0);
        }
        let first6: Vec<u32> = (0..6).map(|_| s.dequeue().unwrap().payload).collect();
        let class0_served = first6.iter().filter(|&&p| p < 6).count();
        assert!(class0_served >= 4, "class0 got {class0_served}/6");
    }

    #[test]
    fn virtual_clock_tags_against_real_time() {
        let mut s = Scheduler::new(
            Discipline::VirtualClock {
                rates: vec![1000.0, 1000.0],
            },
            2,
        );
        // Class 0 arrives early and builds tags ahead of real time;
        // class 1 arrives later with a fresh clock and goes first.
        s.enqueue(0, job(0, 1000), 0.0); // tag 1.0
        s.enqueue(0, job(1, 1000), 0.0); // tag 2.0
        s.enqueue(1, job(2, 1000), 0.5); // tag 1.5
        assert_eq!(s.dequeue().unwrap().payload, 0); // 1.0
        assert_eq!(s.dequeue().unwrap().payload, 2); // 1.5
        assert_eq!(s.dequeue().unwrap().payload, 1); // 2.0
    }

    #[test]
    fn pass_through_leaves_the_state_of_enqueue_then_dequeue() {
        let disciplines = [
            Discipline::StaticPriority,
            Discipline::Fifo,
            Discipline::Wfq {
                weights: vec![1.0, 2.5],
            },
            Discipline::VirtualClock {
                rates: vec![2000.0, 1000.0],
            },
        ];
        for d in disciplines {
            uba_obs::check("pass_through_leaves_the_state", 64, |rng| {
                let mut queued = Scheduler::new(d.clone(), 2);
                let mut direct = Scheduler::new(d.clone(), 2);
                let mut now = 0.0;
                for seq in 0..40 {
                    now += rng.range_f64(0.0, 0.5);
                    let (class, j) = (rng.index(2), job(seq, 100 + rng.index(900) as u64));
                    // Whenever both are empty one takes the short cut;
                    // otherwise they queue and drain alike.
                    if direct.is_empty() && rng.index(3) > 0 {
                        queued.enqueue(class, j, now);
                        uba_obs::ensure!(queued.dequeue().map(|q| q.seq) == Some(seq));
                        direct.pass_through(class, j.bits, now);
                    } else if rng.index(2) == 0 {
                        queued.enqueue(class, j, now);
                        direct.enqueue(class, j, now);
                    } else {
                        let (a, b) = (queued.dequeue(), direct.dequeue());
                        uba_obs::ensure!(a.map(|q| q.seq) == b.map(|q| q.seq));
                    }
                    uba_obs::ensure!(format!("{queued:?}") == format!("{direct:?}"));
                }
                Ok(())
            });
        }
    }

    #[test]
    fn empty_dequeue_none() {
        let mut s: Scheduler<u32> = Scheduler::new(Discipline::StaticPriority, 3);
        assert!(s.dequeue().is_none());
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "one WFQ weight per class")]
    fn wfq_weight_count_checked() {
        let _: Scheduler<u32> = Scheduler::new(Discipline::Wfq { weights: vec![1.0] }, 2);
    }

    #[test]
    fn len_tracks_queue_population() {
        let mut s = Scheduler::new(Discipline::Fifo, 1);
        s.enqueue(0, job(0, 10), 0.0);
        s.enqueue(0, job(1, 10), 0.0);
        assert_eq!(s.len(), 2);
        s.dequeue();
        assert_eq!(s.len(), 1);
    }
}
