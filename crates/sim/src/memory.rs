//! Platform memory: which task outputs are currently resident.

use dagchkpt_dag::{FixedBitSet, NodeId};

/// The volatile memory of the macro-processor: the set of task outputs
/// available without recovery or re-execution. A fault clears it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryState {
    resident: FixedBitSet,
}

impl MemoryState {
    /// Empty memory for `n` tasks.
    pub fn new(n: usize) -> Self {
        MemoryState {
            resident: FixedBitSet::new(n),
        }
    }

    /// `true` when `v`'s output is in memory.
    #[inline]
    pub fn has(&self, v: NodeId) -> bool {
        self.resident.contains(v.index())
    }

    /// Marks `v`'s output as resident.
    #[inline]
    pub fn store(&mut self, v: NodeId) {
        self.resident.insert(v.index());
    }

    /// A fault: every output is lost.
    pub fn wipe(&mut self) {
        self.resident.clear();
    }

    /// Number of resident outputs.
    pub fn len(&self) -> usize {
        self.resident.count()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// View of the underlying bitset.
    pub fn as_bitset(&self) -> &FixedBitSet {
        &self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storing_twice_counts_once_and_the_bitset_mirrors_memory() {
        let mut m = MemoryState::new(70);
        m.store(NodeId(65));
        m.store(NodeId(65));
        m.store(NodeId(2));
        assert_eq!(m.len(), 2);
        assert_eq!(m.as_bitset().iter().collect::<Vec<_>>(), vec![2, 65]);
        assert_eq!(m.as_bitset().len(), 70);
        m.wipe();
        assert_eq!(m, MemoryState::new(70));
    }

    #[test]
    fn store_wipe_cycle() {
        let mut m = MemoryState::new(4);
        assert!(m.is_empty());
        m.store(NodeId(1));
        m.store(NodeId(3));
        assert!(m.has(NodeId(1)) && m.has(NodeId(3)) && !m.has(NodeId(0)));
        assert_eq!(m.len(), 2);
        m.wipe();
        assert!(m.is_empty());
        assert!(!m.has(NodeId(1)));
    }
}
