//! The shared cross-request answer cache.
//!
//! Keyed exactly like the replication-aware optimizer's per-attempt
//! memoization: by the *canonical* spec JSON ([`ScenarioSpec::to_json`]
//! is deterministic field order), the cell index and the output format —
//! so two clients asking the same question share one computation, and a
//! spec that differs in any axis can never alias.
//!
//! An entry is the answer's serialized hit frame payload
//! ([`Response::Cell`] with `cached: true`), LZ-packed, not the answer
//! tree: a hit unpacks the bytes into a reused buffer and writes one
//! frame, with no clone and no re-serialization, and an entry holds about
//! a tenth of the heap the tree did.
//! Size-bounded with FIFO eviction: eviction can only cost recomputation,
//! never change an answer — pinned by the `cache_property` tests.
//!
//! [`ScenarioSpec::to_json`]: dagchkpt_bench::ScenarioSpec::to_json

use crate::lz;
use crate::protocol::{write_frame, Response, TailSummary};
use dagchkpt_bench::{ScheduleDetail, TenantRow};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One computed cell answer (the body of [`Response::Cell`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CellAnswer {
    /// CSV header under the requested format.
    pub header: Vec<String>,
    /// Formatted rows, byte-identical to the batch CSV.
    pub rows: Vec<Vec<String>>,
    /// One optimized schedule per strategy.
    pub schedules: Vec<ScheduleDetail>,
    /// Tail quantiles of the Monte-Carlo rows (finite ones only).
    pub tails: Vec<TailSummary>,
    /// Per-tenant contention summaries (finite ones only; empty when the
    /// spec has no `arrivals` stream).
    pub tenants: Vec<TenantRow>,
}

impl CellAnswer {
    /// Renders the answer as a response frame body.
    pub fn to_response(&self, cached: bool) -> Response {
        Response::Cell {
            header: self.header.clone(),
            rows: self.rows.clone(),
            schedules: self.schedules.clone(),
            cached,
            tails: self.tails.clone(),
            tenants: self.tenants.clone(),
        }
    }
}

/// Preset dictionary of the packed hit frames: the JSON skeleton of a
/// [`Response::Cell`] frame, the header names of the generic row and
/// figure formats, and the paper's workflows and heuristic labels. A
/// frame's first occurrence of these strings costs a back-reference
/// instead of literals. Frames live only in this process's memory and are
/// packed and unpacked against this one constant, so editing it changes
/// how small frames pack, never what a hit sends.
const FRAME_DICTIONARY: &[u8] = br#"{"Cell":{"header":["cell","workflow","n","lambda","failure","cost_rule","platform","replication","strategy","simulator","expected","tinf","ratio","best_n","mc_mean","mc_sem","z"],"rows":[["Montage","Ligo","Genome","CyberShake","DF-CkptNvr","DF-CkptAlws","BF-CkptPer","RF-CkptPer","DF-CkptPer","BF-CkptW","RF-CkptW","DF-CkptW","BF-CkptC","RF-CkptC","DF-CkptC","BF-CkptD","RF-CkptD","DF-CkptD",""]],"cached":true,"tails":[],"tenants":[]}}{"Cell":{"header":["workflow","n","lambda","cost_rule","heuristic","expected_makespan","tinf","ratio","best_n"],"rows":[["],"schedules":[{"strategy":"","order":[],"checkpoints":[],"best_n":null,"expected":,"replica_sets":null}"#;

/// A cached answer: the JSON payload of its hit frame, byte-identical to
/// serializing `answer.to_response(true)`, stored LZ-packed in one shared
/// allocation (a clone is a reference count, not a copy).
#[derive(Debug, Clone)]
pub struct HitFrame {
    packed: Arc<[u8]>,
}

impl HitFrame {
    fn new(answer: &CellAnswer) -> Self {
        let payload = serde_json::to_string(&answer.to_response(true)).expect("answer serializes");
        HitFrame {
            packed: lz::pack(FRAME_DICTIONARY, payload.as_bytes()).into(),
        }
    }

    /// Writes the hit frame to `w`, unpacking the payload into the
    /// caller's reusable `buf`.
    pub fn write_to<W: Write>(&self, w: &mut W, buf: &mut Vec<u8>) -> io::Result<()> {
        write_frame(w, lz::unpack_into(FRAME_DICTIONARY, &self.packed, buf))
    }

    /// Bytes held by the packed payload.
    #[cfg(test)]
    pub(crate) fn packed_len(&self) -> usize {
        self.packed.len()
    }

    /// Decodes the frame back into a response with the given `cached`
    /// flag. Not on the serving path — a hit sends the stored bytes.
    pub fn to_response(&self, cached: bool) -> Response {
        let mut buf = Vec::new();
        let payload = lz::unpack_into(FRAME_DICTIONARY, &self.packed, &mut buf);
        let text = std::str::from_utf8(payload).expect("cached frames are UTF-8");
        let mut resp: Response = serde_json::from_str(text).expect("cached frames decode");
        if let Response::Cell { cached: c, .. } = &mut resp {
            *c = cached;
        }
        resp
    }
}

struct Inner {
    /// Keys are shared with `order`, so each key is stored once.
    map: HashMap<Arc<str>, HitFrame>,
    /// Insertion order, oldest first (FIFO eviction).
    order: VecDeque<Arc<str>>,
}

/// Counter snapshot for [`Request::Stats`](crate::protocol::Request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries held.
    pub capacity: usize,
}

/// Thread-safe bounded answer cache shared by all worker threads.
pub struct ResponseCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

impl ResponseCache {
    /// A cache holding at most `capacity` answers. `capacity == 0`
    /// disables storage entirely (every lookup misses).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// The cache key for one cell query. The spec component is the
    /// canonical JSON, so semantically identical requests share a key.
    pub fn key(spec_json: &str, cell: usize, format: dagchkpt_bench::OutputFormat) -> String {
        format!("{format:?}|{cell}|{spec_json}")
    }

    /// Looks up an answer's hit frame, counting the hit or miss.
    pub fn get(&self, key: &str) -> Option<HitFrame> {
        let frame = self.lookup(key);
        if frame.is_none() {
            self.count_miss();
        }
        frame
    }

    /// Looks up an answer's hit frame, counting only a hit. A caller that
    /// looks up before it knows the request is answerable counts the miss
    /// with [`ResponseCache::count_miss`] once it does.
    ///
    /// Lock poisoning is recovered, not propagated: the cache holds only
    /// plain-old-data behind `Arc`s, every mutation leaves `map` and
    /// `order` individually consistent, and the worst inconsistency a
    /// panic mid-insert can leave behind is a missing or extra FIFO entry
    /// — which costs a recomputation, never a wrong answer. Propagating
    /// the poison instead would cascade the one panicking worker's fate
    /// onto every other worker despite their per-request `catch_unwind`.
    pub fn lookup(&self, key: &str) -> Option<HitFrame> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let frame = inner.map.get(key).cloned();
        if frame.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        frame
    }

    /// Counts one miss.
    pub fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts an answer (stored as its serialized hit frame), evicting
    /// the oldest entry when full. Answers are computed and serialized
    /// *outside* the lock; if two workers raced on the same key, the
    /// results are identical (deterministic evaluation), so
    /// last-writer-wins is safe.
    pub fn insert(&self, key: String, answer: Arc<CellAnswer>) {
        if self.capacity == 0 {
            return;
        }
        let frame = HitFrame::new(&answer);
        let key: Arc<str> = key.into();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.map.insert(Arc::clone(&key), frame).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                }
            }
        }
    }

    /// Test hook: poisons the inner lock by panicking while holding it,
    /// exactly as a worker dying mid-critical-section would. Used by the
    /// daemon regression test; not part of the serving API.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            panic!("deliberate poison");
        }));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(tag: &str) -> Arc<CellAnswer> {
        Arc::new(CellAnswer {
            header: vec!["h".to_string()],
            rows: vec![vec![tag.to_string()]],
            schedules: Vec::new(),
            tails: Vec::new(),
            tenants: Vec::new(),
        })
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cache = ResponseCache::new(2);
        cache.insert("a".to_string(), answer("a"));
        cache.insert("b".to_string(), answer("b"));
        cache.insert("c".to_string(), answer("c"));
        assert!(cache.get("a").is_none(), "oldest entry evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.capacity), (2, 1, 2, 2));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_grow_the_queue() {
        let cache = ResponseCache::new(2);
        for _ in 0..10 {
            cache.insert("a".to_string(), answer("a"));
        }
        cache.insert("b".to_string(), answer("b"));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_some());
    }

    #[test]
    fn poisoned_lock_is_recovered_not_propagated() {
        let cache = Arc::new(ResponseCache::new(2));
        cache.insert("a".to_string(), answer("a"));
        // Poison the inner mutex: panic while holding the lock.
        let poisoner = Arc::clone(&cache);
        std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the cache lock");
        })
        .join()
        .unwrap_err();
        assert!(
            cache.inner.lock().is_err(),
            "lock must actually be poisoned"
        );
        // Every entry point keeps working on the recovered data.
        assert_eq!(
            cache.get("a").unwrap().to_response(true),
            answer("a").to_response(true)
        );
        cache.insert("b".to_string(), answer("b"));
        assert!(cache.get("b").is_some());
        let s = cache.stats();
        assert_eq!((s.entries, s.capacity), (2, 2));
    }

    #[test]
    fn hit_frame_is_the_serialized_cached_response() {
        let answer = Arc::new(CellAnswer {
            header: vec!["a,b".to_string(), "q\"uote".to_string()],
            rows: vec![vec!["1.5".to_string(), "x\ny".to_string()]],
            schedules: Vec::new(),
            tails: vec![TailSummary {
                row: 0,
                p50: 1.25,
                p95: 2.5,
                p99: 1e300,
            }],
            tenants: Vec::new(),
        });
        let cache = ResponseCache::new(1);
        cache.insert("k".to_string(), Arc::clone(&answer));
        let frame = cache.get("k").unwrap();
        let (mut hit, mut reference) = (Vec::new(), Vec::new());
        frame.write_to(&mut hit, &mut Vec::new()).unwrap();
        crate::protocol::write_response_into(
            &mut reference,
            &answer.to_response(true),
            &mut String::new(),
        )
        .unwrap();
        assert_eq!(hit, reference);
        for cached in [true, false] {
            assert_eq!(frame.to_response(cached), answer.to_response(cached));
        }
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResponseCache::new(0);
        cache.insert("a".to_string(), answer("a"));
        assert!(cache.get("a").is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
