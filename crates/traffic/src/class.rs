//! Diffserv traffic classes and class sets.

use crate::bucket::LeakyBucket;

/// Index of a class within a [`ClassSet`]. Lower index = higher priority,
/// matching the paper's convention that Class 1 outranks Class 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub usize);

impl ClassId {
    /// Position in the class set's priority order.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A guaranteed-delay traffic class: a leaky-bucket profile shared by all
/// of its flows plus a class-wide end-to-end deadline `D` (Section 3: "all
/// flows in the same class are guaranteed the same delay").
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficClass {
    /// Human-readable name ("voice", "video", ...).
    pub name: String,
    /// Per-flow source policer `(T, ρ)`.
    pub bucket: LeakyBucket,
    /// End-to-end deadline `D` in seconds.
    pub deadline: f64,
}

impl TrafficClass {
    /// Creates a class, validating the deadline.
    ///
    /// # Panics
    /// Panics if the deadline is non-positive or non-finite.
    pub fn new(name: impl Into<String>, bucket: LeakyBucket, deadline: f64) -> Self {
        assert!(
            deadline.is_finite() && deadline > 0.0,
            "deadline must be positive and finite"
        );
        Self {
            name: name.into(),
            bucket,
            deadline,
        }
    }

    /// The paper's Section 6 voice-over-IP class: `T = 640` bits,
    /// `ρ = 32` kbit/s, `D = 100` ms.
    pub fn voip() -> Self {
        Self::new("voip", LeakyBucket::new(640.0, 32_000.0), 0.1)
    }

    /// Burst-to-rate ratio `T/ρ` in seconds (the bucket's time constant).
    pub fn burst_time(&self) -> f64 {
        self.bucket.burst / self.bucket.rate
    }
}

/// An ordered set of real-time classes, highest priority first.
///
/// Best-effort traffic is implicit: it occupies whatever priority level is
/// below every class here and never affects real-time delays under
/// class-based static priority (Section 5.1).
#[derive(Clone, Debug, Default)]
pub struct ClassSet {
    classes: Vec<TrafficClass>,
}

impl ClassSet {
    /// An empty class set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A set with a single real-time class (the paper's two-class system:
    /// this class plus implicit best effort).
    pub fn single(class: TrafficClass) -> Self {
        let mut s = Self::new();
        s.push(class);
        s
    }

    /// Appends a class at the lowest real-time priority; returns its id.
    pub fn push(&mut self, class: TrafficClass) -> ClassId {
        self.classes.push(class);
        ClassId(self.classes.len() - 1)
    }

    /// Number of real-time classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if there are no real-time classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The class with the given id.
    pub fn get(&self, id: ClassId) -> &TrafficClass {
        &self.classes[id.index()]
    }

    /// Iterator over `(id, class)` in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &TrafficClass)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voip_matches_paper_parameters() {
        let v = TrafficClass::voip();
        assert_eq!(v.bucket.burst, 640.0);
        assert_eq!(v.bucket.rate, 32_000.0);
        assert_eq!(v.deadline, 0.1);
        assert!((v.burst_time() - 0.02).abs() < 1e-15);
    }

    #[test]
    fn push_assigns_priority_order() {
        let mut s = ClassSet::new();
        let hi = s.push(TrafficClass::voip());
        let lo = s.push(TrafficClass::new(
            "video",
            LeakyBucket::new(16_000.0, 1_000_000.0),
            0.2,
        ));
        assert_eq!(hi, ClassId(0));
        assert_eq!(lo, ClassId(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(hi).name, "voip");
    }

    #[test]
    fn single_creates_a_set_of_one() {
        let s = ClassSet::single(TrafficClass::voip());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn iter_in_priority_order() {
        let mut s = ClassSet::new();
        s.push(TrafficClass::new("a", LeakyBucket::new(1.0, 1.0), 1.0));
        s.push(TrafficClass::new("b", LeakyBucket::new(1.0, 1.0), 1.0));
        let names: Vec<&str> = s.iter().map(|(_, c)| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn zero_deadline_rejected() {
        TrafficClass::new("bad", LeakyBucket::new(1.0, 1.0), 0.0);
    }
}
