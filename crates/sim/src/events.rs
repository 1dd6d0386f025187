//! Trace events emitted by the simulation engine.

use dagchkpt_dag::NodeId;
use serde::{Deserialize, Serialize};

/// What a completed execution unit was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnitKind {
    /// First-time execution of the task's work `w_i`.
    Work,
    /// Re-execution of a lost, non-checkpointed ancestor.
    Rework,
    /// Recovery of a checkpointed ancestor (`r_j`).
    Recovery,
    /// Writing the task's checkpoint (`c_i`).
    Checkpoint,
}

/// One event of the execution trace (all times in seconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A unit finished successfully at `at`.
    UnitCompleted {
        /// Task the unit belongs to.
        task: NodeId,
        /// What the unit was.
        kind: UnitKind,
        /// Completion time.
        at: f64,
    },
    /// A fault struck at `at`, wiping memory; the platform is down until
    /// `at + downtime`.
    Fault {
        /// Fault time.
        at: f64,
        /// Downtime paid.
        downtime: f64,
    },
    /// The task at this schedule position completed (work and, if selected,
    /// checkpoint) at `at`.
    TaskDone {
        /// The completed task.
        task: NodeId,
        /// Completion time.
        at: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_and_unit_kind_roundtrips_through_json() {
        let mut events = vec![
            Event::Fault {
                at: 12.5,
                downtime: 0.0,
            },
            Event::TaskDone {
                task: NodeId(7),
                at: 40.0,
            },
        ];
        for (i, kind) in [
            UnitKind::Work,
            UnitKind::Rework,
            UnitKind::Recovery,
            UnitKind::Checkpoint,
        ]
        .into_iter()
        .enumerate()
        {
            events.push(Event::UnitCompleted {
                task: NodeId(i as u32),
                kind,
                at: 0.25 * i as f64,
            });
        }
        for e in events {
            let json = serde_json::to_string(&e).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e, "{json}");
        }
    }

    #[test]
    fn events_serialize() {
        let e = Event::Fault {
            at: 1.5,
            downtime: 2.0,
        };
        let s = serde_json::to_string(&e).unwrap();
        assert!(s.contains("Fault"));
        let u = Event::UnitCompleted {
            task: NodeId(3),
            kind: UnitKind::Rework,
            at: 9.0,
        };
        assert!(serde_json::to_string(&u).unwrap().contains("Rework"));
    }
}
