//! The cooperative scheduler, weak-memory engine, and DPOR exploration.
//!
//! One *execution* runs the model closure with every model thread mapped
//! to a real OS thread, but with exactly one thread runnable at a time:
//! at every schedule point (atomic op, mutex acquire, spawn, join,
//! yield) the running thread hands control to the scheduler, which
//! either replays a recorded decision or — at the exploration frontier —
//! records the decision point and picks a first branch. Decisions come
//! in two kinds: *Thread* (which runnable thread moves) and *Read*
//! (which happens-before-consistent store a weak load observes). After
//! the execution finishes, the deepest decision with an untried
//! alternative is advanced and the model re-runs; when every decision is
//! exhausted, the state space (within bounds) is covered.
//!
//! Exploration is pruned by dynamic partial-order reduction: after each
//! execution the trace is scanned for pairs of dependent transitions by
//! different threads, and only the threads that could change the outcome
//! are added to a decision's backtrack set; sleep sets additionally
//! skip schedules that merely commute with an already-explored sibling.
//! See `DESIGN.md` §14 for the memory-model rules and the reduction.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe, Location};
use std::sync::{Arc, Condvar, Mutex};

use crate::clock::VClock;
use crate::store::{LocState, Store};

/// Consecutive stale reads a single thread may perform on one location
/// before the newest store is forced. Keeps relaxed spin loops (`while
/// !flag.load(Relaxed) {}`) terminating without hiding one-shot
/// staleness bugs, which need only a single stale observation.
const STALE_BOUND: usize = 2;

/// Panic payload used to tear down sibling threads once an execution has
/// already failed; never escapes [`Builder::check`].
struct Sentinel;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Waiting for the model mutex with this id to be released.
    BlockedMutex(u64),
    /// Waiting for this thread index to finish.
    BlockedJoin(usize),
    Finished,
}

/// The first visible effect of a thread's next transition, used for the
/// DPOR dependence relation. Two ops are *independent* when executing
/// them in either order yields the same state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    /// Atomic load from the location at this address.
    Read(usize),
    /// Atomic store or RMW to the location at this address.
    Write(usize),
    /// Model-mutex acquire.
    Lock(u64),
    /// Model-mutex release (recorded as a trace event inside the
    /// transition that performed it; not itself a schedule point).
    Unlock(u64),
    /// Thread spawn. Commutes with every other thread's ops: it only
    /// adds a new thread to the enabled set, touching no shared data.
    Spawn,
    /// Thread join. Commutes likewise — it only observes the target's
    /// finish (and is not even enabled before it).
    Join,
    /// A bare yield; commutes with everything.
    Yield,
    /// Not yet announced: a thread's startup transition, spanning from
    /// being scheduled to its first announced op. Every shared-memory
    /// op announces itself *before* executing, so this transition runs
    /// only thread-local code and commutes with everything.
    Unknown,
}

/// The dependence relation. Two ops are dependent exactly when
/// executing them in the other order could change the state: two
/// same-location atomic accesses with at least one write, or two
/// operations on the same mutex. Over-approximating would cost
/// schedules but never soundness; under-approximating would be
/// unsound — see the `Op` variant docs for why the control ops
/// (spawn/join/yield/startup) genuinely commute.
fn dependent(a: Op, b: Op) -> bool {
    match (a, b) {
        (Op::Read(x), Op::Write(y))
        | (Op::Write(x), Op::Read(y))
        | (Op::Write(x), Op::Write(y)) => x == y,
        (Op::Lock(x) | Op::Unlock(x), Op::Lock(y) | Op::Unlock(y)) => x == y,
        // Read/Read (each load picks its store via its own Read
        // decision), yields, spawns, joins, and startup transitions all
        // commute with everything.
        _ => false,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChoiceKind {
    /// Which runnable thread executes next; `options` holds thread ids.
    Thread,
    /// Which visible store a load observes; `options` holds store
    /// indices in the location's modification order, newest first.
    Read,
}

/// One recorded decision: the alternatives at that point (in exploration
/// order) and which of them was chosen, plus — for Thread decisions
/// under DPOR — the backtrack set (`todo`), the already-explored
/// siblings with the op each executed (`done`, which doubles as this
/// node's contribution to the sleep set), and the op the current branch
/// executed (`executed`).
#[derive(Clone, Debug)]
struct Choice {
    kind: ChoiceKind,
    options: Vec<usize>,
    chosen: usize,
    todo: Vec<usize>,
    done: Vec<(usize, Op)>,
    executed: Op,
}

/// One executed transition, for the post-execution DPOR scan: the path
/// node it was chosen at, the thread, and its op. Mutex releases are
/// appended as extra events attributed to the node of the transition
/// that performed them.
#[derive(Clone, Copy, Debug)]
struct TraceStep {
    node: usize,
    thread: usize,
    op: Op,
}

enum Abort {
    /// A model thread panicked (a failed assertion, usually).
    Panic(Box<dyn std::any::Any + Send>),
    /// The scheduler itself gave up: deadlock, depth bound, divergence.
    Error(String),
    /// Sleep-set pruning: this schedule only commutes with an
    /// already-explored one. Not a failure; counted as pruned.
    Pruned,
}

#[derive(Clone)]
struct Config {
    preemption_bound: Option<usize>,
    max_branches: usize,
    dpor: bool,
    /// Pinned decisions for single-schedule replay: `(kind tag, chosen
    /// value)` per path node, parsed from a replay string.
    replay: Option<Arc<Vec<(u8, usize)>>>,
}

struct ExecState {
    status: Vec<Status>,
    active: usize,
    /// Registered minus finished threads.
    live: usize,
    /// Index of the next decision in `path`.
    step: usize,
    path: Vec<Choice>,
    /// Context switches taken so far while the switched-from thread was
    /// still runnable (the CHESS preemption counter).
    preemptions: usize,
    /// Model mutexes currently held: mutex id → holder thread.
    held: HashMap<u64, usize>,
    abort: Option<Abort>,
    config: Config,
    /// Spawn-site name per thread, for counterexample reports.
    names: Vec<String>,
    /// Happens-before clock per thread.
    clocks: Vec<VClock>,
    /// The op each thread will perform at its current schedule point.
    pending: Vec<Op>,
    /// Path node at which each thread's current transition was chosen.
    last_node: Vec<usize>,
    /// Sleep set: threads (with the op they would run) whose next
    /// transition is covered by an already-explored sibling schedule.
    cur_sleep: Vec<(usize, Op)>,
    /// Weak-memory state per atomic location, keyed by address.
    locs: HashMap<usize, LocState>,
    /// Release clock per model mutex: joined by the next acquirer.
    mutex_clocks: HashMap<u64, VClock>,
    /// Global `SeqCst` order approximation: every SC op joins this
    /// clock and publishes into it, so SC ops are totally ordered (and
    /// SC-only programs stay sequentially consistent).
    sc_clock: VClock,
    trace: Vec<TraceStep>,
    /// Loads this execution that observed a non-newest store.
    stale_reads: usize,
    /// Human-readable stale-read records for counterexample reports.
    notes: Vec<String>,
}

pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cond: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

thread_local! {
    /// Replay string of the most recent counterexample a
    /// [`Builder::check`] on *this* thread reported (thread-local so
    /// concurrently running tests cannot clobber each other's).
    static LAST_COUNTEREXAMPLE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The replay/choice string of the most recent counterexample a check
/// on the calling thread reported, if any. Feed it to
/// [`Builder::replay`] (or the `UBA_LOOM_REPLAY` env var) to re-run
/// exactly that schedule.
pub fn last_counterexample() -> Option<String> {
    LAST_COUNTEREXAMPLE.with(|c| c.borrow().clone())
}

fn set_last_counterexample(s: &str) {
    LAST_COUNTEREXAMPLE.with(|c| *c.borrow_mut() = Some(s.to_string()));
}

/// The execution the calling thread is controlled by, if any. Model
/// primitives used outside a model (static initializers, test setup)
/// fall back to plain `SeqCst` std behavior with no schedule points.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Hands control to the scheduler at a plain (yield) schedule point.
/// No-op outside a model.
pub(crate) fn yield_point() {
    if let Some((exec, me)) = current() {
        exec.op_point(me, Op::Yield);
    }
}

fn sentinel() -> ! {
    resume_unwind(Box::new(Sentinel))
}

impl Execution {
    fn new(path: Vec<Choice>, config: Config) -> Self {
        Self {
            state: Mutex::new(ExecState {
                status: Vec::new(),
                active: 0,
                live: 0,
                step: 0,
                path,
                preemptions: 0,
                held: HashMap::new(),
                abort: None,
                config,
                names: Vec::new(),
                clocks: Vec::new(),
                pending: Vec::new(),
                last_node: Vec::new(),
                cur_sleep: Vec::new(),
                locs: HashMap::new(),
                mutex_clocks: HashMap::new(),
                sc_clock: VClock::new(),
                trace: Vec::new(),
                stale_reads: 0,
                notes: Vec::new(),
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ExecState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Registers a thread; the child's clock starts at the parent's (a
    /// spawn happens-before everything the child does).
    pub(crate) fn register_thread(&self, name: Option<String>, parent: Option<usize>) -> usize {
        let mut st = self.lock();
        let idx = st.status.len();
        st.status.push(Status::Runnable);
        st.live += 1;
        let clock = match parent {
            Some(p) => {
                st.clocks[p].bump(p);
                let mut c = st.clocks[p].clone();
                c.bump(idx);
                c
            }
            None => {
                let mut c = VClock::new();
                c.bump(idx);
                c
            }
        };
        st.clocks.push(clock);
        st.names.push(match name {
            Some(n) => format!("t{idx}@{n}"),
            None if idx == 0 => "main".to_string(),
            None => format!("t{idx}"),
        });
        st.pending.push(Op::Unknown);
        st.last_node.push(0);
        idx
    }

    /// The exploration-ordered runnable set at a schedule point reached
    /// by `me` (`None` when the point is a thread finishing): `me` first
    /// so depth-first search tries "keep running" before any preemption,
    /// then the rest by index. With the preemption budget exhausted and
    /// `me` still runnable, the only option is to continue `me`.
    fn options_for(st: &ExecState, me: Option<usize>) -> Vec<usize> {
        let runnable = |t: usize| st.status[t] == Status::Runnable;
        if let (Some(bound), Some(m)) = (st.config.preemption_bound, me) {
            if st.preemptions >= bound && runnable(m) {
                return vec![m];
            }
        }
        let mut opts = Vec::new();
        if let Some(m) = me {
            if runnable(m) {
                opts.push(m);
            }
        }
        for t in 0..st.status.len() {
            if Some(t) != me && runnable(t) {
                opts.push(t);
            }
        }
        opts
    }

    fn deadlock_report(st: &ExecState) -> String {
        let waits: Vec<String> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, Status::Finished))
            .map(|(t, s)| match s {
                Status::BlockedMutex(id) => {
                    let holder = st
                        .held
                        .get(id)
                        .map(|&h| format!(" held by {}", st.names[h]))
                        .unwrap_or_default();
                    format!("{} waits on mutex #{id}{holder}", st.names[t])
                }
                Status::BlockedJoin(j) => {
                    format!("{} waits to join {}", st.names[t], st.names[*j])
                }
                _ => format!("{}: {s:?}", st.names[t]),
            })
            .collect();
        format!(
            "deadlock: {} live thread(s), none runnable [{}]",
            st.live,
            waits.join(", ")
        )
    }

    /// Takes (or replays) the Thread decision at the current step and
    /// installs the chosen thread as active. Must be called with the
    /// state locked; sets `abort` instead of choosing when the model is
    /// stuck (deadlock), too deep, nondeterministic, or sleep-blocked.
    fn schedule_locked(&self, st: &mut ExecState, me: Option<usize>) {
        if st.abort.is_some() {
            self.cond.notify_all();
            return;
        }
        let options = Self::options_for(st, me);
        if options.is_empty() {
            if st.live > 0 {
                st.abort = Some(Abort::Error(Self::deadlock_report(st)));
            }
            self.cond.notify_all();
            return;
        }
        let node = st.step;
        let dpor = st.config.dpor;
        if node == st.path.len() {
            if node >= st.config.max_branches {
                st.abort = Some(Abort::Error(format!(
                    "schedule depth exceeded max_branches = {}",
                    st.config.max_branches
                )));
                self.cond.notify_all();
                return;
            }
            let mut chosen = 0usize;
            if let Some(&(kind, value)) = st
                .config
                .replay
                .clone()
                .as_deref()
                .and_then(|r| r.get(node))
            {
                if kind == b't' {
                    if let Some(p) = options.iter().position(|&t| t == value) {
                        chosen = p;
                    }
                }
            } else if dpor {
                let asleep = |t: usize| st.cur_sleep.iter().any(|&(s, _)| s == t);
                match options.iter().position(|&t| !asleep(t)) {
                    Some(p) => chosen = p,
                    None => {
                        st.abort = Some(Abort::Pruned);
                        self.cond.notify_all();
                        return;
                    }
                }
            }
            let todo = if dpor {
                vec![options[chosen]]
            } else {
                Vec::new()
            };
            st.path.push(Choice {
                kind: ChoiceKind::Thread,
                options,
                chosen,
                todo,
                done: Vec::new(),
                executed: Op::Unknown,
            });
        } else {
            let c = &st.path[node];
            if c.kind != ChoiceKind::Thread || c.options != options {
                st.abort = Some(Abort::Error(format!(
                    "nondeterministic model: replay step {node} expected {:?} over {:?}, found \
                     thread choice over {options:?} (model closures must not branch on wall-clock \
                     time or other ambient state)",
                    c.kind, c.options
                )));
                self.cond.notify_all();
                return;
            }
            if dpor {
                let t = c.options[c.chosen];
                let asleep = st.cur_sleep.iter().any(|&(s, _)| s == t)
                    || c.done.iter().any(|&(d, _)| d == t);
                if asleep {
                    st.abort = Some(Abort::Pruned);
                    self.cond.notify_all();
                    return;
                }
            }
        }
        let next = st.path[node].options[st.path[node].chosen];
        let op = st.pending[next];
        st.path[node].executed = op;
        if dpor {
            st.cur_sleep.retain(|&(_, o)| !dependent(o, op));
        }
        st.trace.push(TraceStep {
            node,
            thread: next,
            op,
        });
        st.last_node[next] = node;
        if let Some(m) = me {
            if next != m && st.status[m] == Status::Runnable {
                st.preemptions += 1;
            }
        }
        st.step += 1;
        st.active = next;
        self.cond.notify_all();
    }

    /// Takes (or replays) a Read decision — which visible store a load
    /// observes. Runs on the already-active thread, so nobody waits;
    /// returns `None` after setting `abort` (caller must sentinel).
    fn choose_read_locked(&self, st: &mut ExecState, options: Vec<usize>) -> Option<usize> {
        if st.abort.is_some() {
            return None;
        }
        let node = st.step;
        if node == st.path.len() {
            if node >= st.config.max_branches {
                st.abort = Some(Abort::Error(format!(
                    "schedule depth exceeded max_branches = {}",
                    st.config.max_branches
                )));
                self.cond.notify_all();
                return None;
            }
            let mut chosen = 0usize;
            if let Some(&(kind, value)) = st
                .config
                .replay
                .clone()
                .as_deref()
                .and_then(|r| r.get(node))
            {
                if kind == b'r' {
                    if let Some(p) = options.iter().position(|&i| i == value) {
                        chosen = p;
                    }
                }
            }
            st.path.push(Choice {
                kind: ChoiceKind::Read,
                options,
                chosen,
                todo: Vec::new(),
                done: Vec::new(),
                executed: Op::Unknown,
            });
        } else {
            let c = &st.path[node];
            if c.kind != ChoiceKind::Read || c.options != options {
                st.abort = Some(Abort::Error(format!(
                    "nondeterministic model: replay step {node} expected {:?} over {:?}, found \
                     read choice over {options:?} (model closures must not branch on wall-clock \
                     time or other ambient state)",
                    c.kind, c.options
                )));
                self.cond.notify_all();
                return None;
            }
        }
        let c = &st.path[node];
        let idx = c.options[c.chosen];
        st.step += 1;
        Some(idx)
    }

    /// Announces the caller's next op (for DPOR dependence and sleep
    /// sets), then runs a full Thread schedule point.
    pub(crate) fn op_point(&self, me: usize, op: Op) {
        {
            let mut st = self.lock();
            st.pending[me] = op;
        }
        self.switch(me);
    }

    /// A full schedule point: decide who runs next, then wait until this
    /// thread is active again. Panics with the sentinel once the
    /// execution has aborted.
    pub(crate) fn switch(&self, me: usize) {
        let mut st = self.lock();
        self.schedule_locked(&mut st, Some(me));
        while st.abort.is_none() && st.active != me {
            st = match self.cond.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        let aborted = st.abort.is_some();
        drop(st);
        if aborted {
            sentinel();
        }
    }

    /// Marks `me` blocked with `status`, schedules someone else, and
    /// waits until `me` is runnable *and* active again.
    fn block(&self, me: usize, status: Status) {
        let mut st = self.lock();
        st.status[me] = status;
        self.schedule_locked(&mut st, Some(me));
        while st.abort.is_none() && !(st.status[me] == Status::Runnable && st.active == me) {
            st = match self.cond.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        let aborted = st.abort.is_some();
        drop(st);
        if aborted {
            sentinel();
        }
    }

    /// Modeled atomic load. Computes the happens-before-consistent
    /// visible range of the location's modification order, forks a Read
    /// decision when more than one store is visible, and applies the
    /// acquire/SC clock rules for the store actually observed.
    pub(crate) fn atomic_load(
        &self,
        me: usize,
        addr: usize,
        seed: u64,
        acquire: bool,
        sc: bool,
        site: &'static Location<'static>,
    ) -> u64 {
        self.op_point(me, Op::Read(addr));
        let mut st = self.lock();
        if st.abort.is_some() {
            drop(st);
            sentinel();
        }
        st.clocks[me].bump(me);
        if sc {
            let c = st.sc_clock.clone();
            st.clocks[me].join(&c);
        }
        let (latest, floor) = {
            let stx = &mut *st;
            let loc = stx
                .locs
                .entry(addr)
                .or_insert_with(|| LocState::seed(seed, site));
            let latest = loc.stores.len() - 1;
            let mut floor = loc.seen(me).max(loc.hb_floor(&stx.clocks[me]));
            if sc {
                if let Some(f) = loc.sc_floor() {
                    floor = floor.max(f);
                }
            }
            if loc.streak(me) >= STALE_BOUND {
                floor = latest;
            }
            (latest, floor)
        };
        let idx = if floor == latest {
            latest
        } else {
            let options: Vec<usize> = (floor..=latest).rev().collect();
            match self.choose_read_locked(&mut st, options) {
                Some(i) => i,
                None => {
                    drop(st);
                    sentinel();
                }
            }
        };
        let (value, sync, store_site, writer, initial) = {
            let s = &st.locs[&addr].stores[idx];
            (s.value, s.sync.clone(), s.site, s.writer, s.initial)
        };
        if acquire || sc {
            st.clocks[me].join(&sync);
        }
        if sc {
            let mine = st.clocks[me].clone();
            st.sc_clock.join(&mine);
        }
        let stale = idx < latest;
        {
            let loc = st.locs.get_mut(&addr).expect("location seeded above");
            loc.mark_seen(me, idx);
            loc.set_streak(me, stale);
        }
        if stale {
            st.stale_reads += 1;
            if st.notes.len() < 16 {
                let provenance = if initial {
                    "the pre-model initial value".to_string()
                } else {
                    format!("the store by {} at {store_site}", st.names[writer])
                };
                let note = format!(
                    "{}: load at {site} observed stale value {value} from {provenance} ({} newer \
                     store(s) existed)",
                    st.names[me],
                    latest - idx
                );
                st.notes.push(note);
            }
        }
        value
    }

    /// Modeled atomic store: appends to the location's modification
    /// order with the release/SC clock rules.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_store(
        &self,
        me: usize,
        addr: usize,
        seed: u64,
        value: u64,
        release: bool,
        sc: bool,
        site: &'static Location<'static>,
    ) {
        self.op_point(me, Op::Write(addr));
        let mut st = self.lock();
        if st.abort.is_some() {
            drop(st);
            sentinel();
        }
        st.clocks[me].bump(me);
        if sc {
            let c = st.sc_clock.clone();
            st.clocks[me].join(&c);
            let mine = st.clocks[me].clone();
            st.sc_clock.join(&mine);
        }
        let stamp = st.clocks[me].clone();
        let sync = if release || sc {
            stamp.clone()
        } else {
            VClock::new()
        };
        let stx = &mut *st;
        let loc = stx
            .locs
            .entry(addr)
            .or_insert_with(|| LocState::seed(seed, site));
        loc.stores.push(Store {
            value,
            writer: me,
            stamp,
            sync,
            site,
            sc,
            initial: false,
        });
        let idx = loc.stores.len() - 1;
        loc.mark_seen(me, idx);
        loc.set_streak(me, false);
    }

    /// Modeled read-modify-write. Per the C++ model an atomic RMW always
    /// reads the *newest* store in the modification order; on success
    /// the new store continues the release sequence (it carries the
    /// predecessor's `sync` forward, adding the writer's clock when the
    /// RMW itself releases). Returns `(observed, stored)` where
    /// `stored` is `None` when `f` declined (a failed CAS — then just a
    /// load of the newest store, with `acq_fail` clock semantics).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        addr: usize,
        seed: u64,
        f: &mut dyn FnMut(u64) -> Option<u64>,
        acquire: bool,
        release: bool,
        sc: bool,
        acq_fail: bool,
        site: &'static Location<'static>,
    ) -> (u64, Option<u64>) {
        self.op_point(me, Op::Write(addr));
        let mut st = self.lock();
        if st.abort.is_some() {
            drop(st);
            sentinel();
        }
        st.clocks[me].bump(me);
        if sc {
            let c = st.sc_clock.clone();
            st.clocks[me].join(&c);
        }
        let (old, prev_sync, latest) = {
            let stx = &mut *st;
            let loc = stx
                .locs
                .entry(addr)
                .or_insert_with(|| LocState::seed(seed, site));
            let s = loc.stores.last().expect("modification order never empty");
            (s.value, s.sync.clone(), loc.stores.len() - 1)
        };
        let new = f(old);
        match new {
            Some(v) => {
                if acquire {
                    st.clocks[me].join(&prev_sync);
                }
                if sc {
                    let mine = st.clocks[me].clone();
                    st.sc_clock.join(&mine);
                }
                let stamp = st.clocks[me].clone();
                let mut sync = prev_sync;
                if release || sc {
                    sync.join(&stamp);
                }
                let stx = &mut *st;
                let loc = stx.locs.get_mut(&addr).expect("location seeded above");
                loc.stores.push(Store {
                    value: v,
                    writer: me,
                    stamp,
                    sync,
                    site,
                    sc,
                    initial: false,
                });
                let idx = loc.stores.len() - 1;
                loc.mark_seen(me, idx);
                loc.set_streak(me, false);
            }
            None => {
                if acq_fail {
                    st.clocks[me].join(&prev_sync);
                }
                let loc = st.locs.get_mut(&addr).expect("location seeded above");
                loc.mark_seen(me, latest);
                loc.set_streak(me, false);
            }
        }
        (old, new)
    }

    /// Model-mutex acquire: spin over (block-until-free, try-take).
    /// Acquiring joins the mutex's release clock (lock/unlock pairs
    /// synchronize like acquire/release on the same location).
    pub(crate) fn mutex_lock(&self, me: usize, id: u64) {
        self.op_point(me, Op::Lock(id));
        loop {
            let mut st = self.lock();
            if st.abort.is_some() {
                drop(st);
                sentinel();
            }
            if let std::collections::hash_map::Entry::Vacant(e) = st.held.entry(id) {
                e.insert(me);
                st.clocks[me].bump(me);
                if let Some(mc) = st.mutex_clocks.get(&id) {
                    let mc = mc.clone();
                    st.clocks[me].join(&mc);
                }
                return;
            }
            drop(st);
            self.block(me, Status::BlockedMutex(id));
        }
    }

    /// Model-mutex release: publishes the holder's clock to the mutex
    /// and wakes every thread blocked on `id` (they re-contend at their
    /// next schedule). Not a schedule point itself; the release is
    /// recorded as a trace event of the containing transition.
    pub(crate) fn mutex_unlock(&self, me: usize, id: u64) {
        let mut st = self.lock();
        st.clocks[me].bump(me);
        let mine = st.clocks[me].clone();
        st.mutex_clocks.entry(id).or_default().join(&mine);
        st.held.remove(&id);
        for s in st.status.iter_mut() {
            if *s == Status::BlockedMutex(id) {
                *s = Status::Runnable;
            }
        }
        let op = Op::Unlock(id);
        let node = st.last_node[me];
        st.trace.push(TraceStep {
            node,
            thread: me,
            op,
        });
        if st.config.dpor {
            st.cur_sleep.retain(|&(_, o)| !dependent(o, op));
        }
        self.cond.notify_all();
    }

    /// Blocks until thread `target` finishes, then joins its clock
    /// (everything the target did happens-before the join returning).
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        {
            let mut st = self.lock();
            st.pending[me] = Op::Join;
        }
        loop {
            let mut st = self.lock();
            if st.abort.is_some() {
                drop(st);
                sentinel();
            }
            if st.status[target] == Status::Finished {
                st.clocks[me].bump(me);
                let tc = st.clocks[target].clone();
                st.clocks[me].join(&tc);
                return;
            }
            drop(st);
            self.block(me, Status::BlockedJoin(target));
        }
    }

    /// First wait of a freshly spawned thread: it may not run until the
    /// scheduler picks it. Returns false when the execution aborted
    /// before the thread ever ran.
    fn wait_first_turn(&self, me: usize) -> bool {
        let mut st = self.lock();
        while st.abort.is_none() && st.active != me {
            st = match self.cond.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        st.abort.is_none()
    }

    /// Retires a thread, records its panic (if real), wakes joiners, and
    /// schedules a successor.
    fn finish(&self, me: usize, result: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.lock();
        st.status[me] = Status::Finished;
        st.live -= 1;
        for s in st.status.iter_mut() {
            if *s == Status::BlockedJoin(me) {
                *s = Status::Runnable;
            }
        }
        if let Err(payload) = result {
            if !payload.is::<Sentinel>() && st.abort.is_none() {
                st.abort = Some(Abort::Panic(payload));
            }
        }
        if st.live > 0 && st.abort.is_none() {
            self.schedule_locked(&mut st, None);
        } else {
            self.cond.notify_all();
        }
    }
}

/// Entry point of every controlled OS thread.
pub(crate) fn controlled_main(exec: Arc<Execution>, idx: usize, f: impl FnOnce()) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), idx)));
    let result = if exec.wait_first_turn(idx) {
        catch_unwind(AssertUnwindSafe(f)).map_err(|e| e as Box<dyn std::any::Any + Send>)
    } else {
        Err(Box::new(Sentinel) as Box<dyn std::any::Any + Send>)
    };
    CURRENT.with(|c| *c.borrow_mut() = None);
    exec.finish(idx, result);
}

/// Spawns a controlled model thread inside the current execution and
/// returns its index. Panics outside a model.
pub(crate) fn spawn_controlled(name: Option<String>, f: impl FnOnce() + Send + 'static) -> usize {
    let (exec, me) = current().expect("uba-loom: thread::spawn outside a model");
    let idx = exec.register_thread(name, Some(me));
    let exec2 = Arc::clone(&exec);
    std::thread::spawn(move || controlled_main(exec2, idx, f));
    // Give the scheduler the chance to run the child before the parent's
    // next step — spawn is itself an interleaving-relevant point.
    exec.op_point(me, Op::Spawn);
    idx
}

/// How an exploration ended, with telemetry. Serialize with
/// [`Exploration::to_json`] for the `BENCH_loom.json` lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exploration {
    /// Whether every schedule within the configured bounds was covered
    /// (false when the iteration cap stopped the search first).
    pub complete: bool,
    /// Distinct schedules executed to completion (or failure).
    pub executions: usize,
    /// Schedules abandoned by sleep-set pruning before completing.
    pub pruned: usize,
    /// Deepest decision path (schedule points + read choices) seen.
    pub max_depth: usize,
    /// Loads (across all executions) that observed a stale store.
    pub stale_reads: usize,
    /// Wall-clock time of the whole exploration, in milliseconds.
    pub wall_ms: u64,
}

impl Exploration {
    /// Number of distinct executions performed.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// One-line JSON object with every telemetry field the model alone
    /// determines. `wall_ms` is left out so the `BENCH_loom.json` lane
    /// rewrites a byte-identical file when no model changed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"complete\":{},\"executions\":{},\"pruned\":{},\"max_depth\":{},\
             \"stale_reads\":{}}}",
            self.complete, self.executions, self.pruned, self.max_depth, self.stale_reads
        )
    }
}

/// Serializes a decision path as a replay string: one dot-separated
/// token per decision, `t<thread>` or `r<store index>`.
fn replay_string(path: &[Choice]) -> String {
    path.iter()
        .map(|c| match c.kind {
            ChoiceKind::Thread => format!("t{}", c.options[c.chosen]),
            ChoiceKind::Read => format!("r{}", c.options[c.chosen]),
        })
        .collect::<Vec<_>>()
        .join(".")
}

fn parse_replay(s: &str) -> Option<Vec<(u8, usize)>> {
    s.split('.')
        .filter(|t| !t.is_empty())
        .map(|t| {
            let (kind, rest) = t.split_at(1);
            let kind = match kind {
                "t" => b't',
                "r" => b'r',
                _ => return None,
            };
            rest.parse::<usize>().ok().map(|v| (kind, v))
        })
        .collect()
}

/// The post-execution DPOR scan: for every executed transition, find the
/// latest earlier dependent transition by another thread and add the
/// later thread to the backtrack set of the node the earlier one was
/// chosen at (or every enabled thread there, when the later thread was
/// not enabled — the conservative fallback of Flanagan–Godefroid).
fn dpor_update(path: &mut [Choice], trace: &[TraceStep]) {
    for i in 0..trace.len() {
        let ti = trace[i].thread;
        let oi = trace[i].op;
        let Some(j) = (0..i)
            .rev()
            .find(|&j| trace[j].thread != ti && dependent(trace[j].op, oi))
        else {
            continue;
        };
        let n = trace[j].node;
        let c = &mut path[n];
        debug_assert_eq!(c.kind, ChoiceKind::Thread);
        let add = |c: &mut Choice, t: usize| {
            if c.options[c.chosen] != t
                && !c.todo.contains(&t)
                && !c.done.iter().any(|&(d, _)| d == t)
            {
                c.todo.push(t);
            }
        };
        if c.options.contains(&ti) {
            add(c, ti);
        } else {
            let opts = c.options.clone();
            for t in opts {
                add(c, t);
            }
        }
    }
}

/// Depth-first advance over the decision path. Returns false when the
/// search is exhausted. Under DPOR, Thread nodes advance through their
/// backtrack set (retiring explored branches into the sleep-set `done`
/// list); without it they enumerate every option. Read nodes always
/// enumerate every visible store.
fn advance(path: &mut Vec<Choice>, dpor: bool) -> bool {
    loop {
        let Some(c) = path.last_mut() else {
            return false;
        };
        match c.kind {
            ChoiceKind::Read => {
                if c.chosen + 1 < c.options.len() {
                    c.chosen += 1;
                    return true;
                }
                path.pop();
            }
            ChoiceKind::Thread if dpor => {
                let cur = c.options[c.chosen];
                if !c.done.iter().any(|&(t, _)| t == cur) {
                    let op = c.executed;
                    c.done.push((cur, op));
                }
                let mut advanced = false;
                while let Some(t) = c.todo.pop() {
                    if c.done.iter().any(|&(d, _)| d == t) {
                        continue;
                    }
                    if let Some(p) = c.options.iter().position(|&o| o == t) {
                        c.chosen = p;
                        advanced = true;
                        break;
                    }
                }
                if advanced {
                    return true;
                }
                path.pop();
            }
            ChoiceKind::Thread => {
                if c.chosen + 1 < c.options.len() {
                    c.chosen += 1;
                    return true;
                }
                path.pop();
            }
        }
    }
}

/// Configures and runs a bounded model check. [`model`] is the
/// all-defaults shorthand.
#[derive(Clone, Debug)]
pub struct Builder {
    /// Maximum context switches away from a still-runnable thread per
    /// execution (`None` = unbounded, i.e. full DFS). Most concurrency
    /// bugs surface within 2; the bound keeps big models polynomial.
    pub preemption_bound: Option<usize>,
    /// Cap on schedules (executed + pruned); exploration stops (with a
    /// note on stderr) when it is reached.
    pub max_iterations: usize,
    /// Cap on decision points in a single execution; exceeding it fails
    /// the model (it almost always means an unbounded retry loop).
    pub max_branches: usize,
    /// Dynamic partial-order reduction (backtrack + sleep sets). On by
    /// default; turn off to measure the unreduced schedule count or to
    /// debug the checker itself. Setting the `UBA_LOOM_NO_DPOR`
    /// environment variable turns it off for every default-constructed
    /// builder in the process (how the DESIGN.md reduction table and
    /// `BENCH_loom.json` baselines are reproduced).
    pub dpor: bool,
    /// Replay exactly one schedule from a counterexample's choice
    /// string instead of exploring (see [`Builder::replay`]). The
    /// `UBA_LOOM_REPLAY` environment variable sets this for every check
    /// in the process.
    pub replay: Option<String>,
}

impl Default for Builder {
    fn default() -> Self {
        Self {
            preemption_bound: None,
            max_iterations: 100_000,
            max_branches: 10_000,
            dpor: std::env::var_os("UBA_LOOM_NO_DPOR").is_none(),
            replay: None,
        }
    }
}

impl Builder {
    /// A builder with the default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins exploration to the single schedule described by `choices`
    /// (the dot-separated string printed with every counterexample).
    pub fn replay(mut self, choices: &str) -> Self {
        self.replay = Some(choices.to_string());
        self
    }

    /// Runs `f` under every schedule within the bounds. Panics (with the
    /// model's own panic payload) on the first failing schedule, after
    /// printing the thread names, any stale-read notes, and the replay
    /// choice string of the failing schedule.
    pub fn check<F>(&self, f: F) -> Exploration
    where
        F: Fn() + Send + Sync + 'static,
    {
        let start = std::time::Instant::now();
        let replay_str = self
            .replay
            .clone()
            .or_else(|| std::env::var("UBA_LOOM_REPLAY").ok());
        let replay = replay_str.as_deref().map(|s| {
            parse_replay(s).unwrap_or_else(|| panic!("uba-loom: malformed replay string {s:?}"))
        });
        let replay_mode = replay.is_some();
        let config = Config {
            preemption_bound: if replay_mode {
                None
            } else {
                self.preemption_bound
            },
            max_branches: self.max_branches,
            dpor: self.dpor && !replay_mode,
            replay: replay.map(Arc::new),
        };
        let f = Arc::new(f);
        let mut path: Vec<Choice> = Vec::new();
        let mut executions = 0usize;
        let mut pruned = 0usize;
        let mut max_depth = 0usize;
        let mut stale_reads = 0usize;
        loop {
            let exec = Arc::new(Execution::new(std::mem::take(&mut path), config.clone()));
            let root = exec.register_thread(None, None);
            debug_assert_eq!(root, 0);
            let exec2 = Arc::clone(&exec);
            let f2 = Arc::clone(&f);
            let driver = std::thread::spawn(move || controlled_main(exec2, 0, move || f2()));
            let (abort, trace) = {
                let mut st = exec.lock();
                while st.live > 0 {
                    st = match exec.cond.wait(st) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
                path = std::mem::take(&mut st.path);
                let trace = std::mem::take(&mut st.trace);
                stale_reads += st.stale_reads;
                let abort = st.abort.take();
                if let Some(Abort::Panic(_) | Abort::Error(_)) = &abort {
                    // Keep the failing execution's diagnostics.
                    let notes = std::mem::take(&mut st.notes);
                    let names = std::mem::take(&mut st.names);
                    drop(st);
                    let _ = driver.join();
                    let replay = replay_string(&path);
                    set_last_counterexample(&replay);
                    for n in &notes {
                        eprintln!("uba-loom: note: {n}");
                    }
                    eprintln!(
                        "uba-loom: counterexample after {} executed + {pruned} pruned \
                         schedule(s), depth {} [threads: {}]",
                        executions + 1,
                        path.len(),
                        names.join(", ")
                    );
                    eprintln!("uba-loom: replay with UBA_LOOM_REPLAY={replay}");
                    match abort {
                        Some(Abort::Panic(payload)) => resume_unwind(payload),
                        Some(Abort::Error(msg)) => {
                            panic!("uba-loom: {msg} (replay with UBA_LOOM_REPLAY={replay})")
                        }
                        _ => unreachable!(),
                    }
                }
                drop(st);
                let _ = driver.join();
                (abort, trace)
            };
            max_depth = max_depth.max(path.len());
            match abort {
                Some(Abort::Pruned) => pruned += 1,
                None => executions += 1,
                _ => unreachable!("failures reported above"),
            }
            let wall_ms = || start.elapsed().as_millis() as u64;
            if replay_mode {
                return Exploration {
                    complete: true,
                    executions,
                    pruned,
                    max_depth,
                    stale_reads,
                    wall_ms: wall_ms(),
                };
            }
            if config.dpor {
                dpor_update(&mut path, &trace);
            }
            if !advance(&mut path, config.dpor) {
                return Exploration {
                    complete: true,
                    executions,
                    pruned,
                    max_depth,
                    stale_reads,
                    wall_ms: wall_ms(),
                };
            }
            if executions + pruned >= self.max_iterations {
                eprintln!(
                    "uba-loom: iteration cap {} reached; exploration truncated",
                    self.max_iterations
                );
                return Exploration {
                    complete: false,
                    executions,
                    pruned,
                    max_depth,
                    stale_reads,
                    wall_ms: wall_ms(),
                };
            }
        }
    }
}

/// Checks `f` under every interleaving (and every weak-memory read
/// choice) with the default bounds: full DFS with DPOR, 100k-schedule
/// cap. See [`Builder`] to bound preemptions for larger models.
pub fn model<F>(f: F) -> Exploration
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f)
}
