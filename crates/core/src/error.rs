use std::fmt;

use blockdev::DeviceError;
use lsm::LsmError;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, BacklogError>;

/// Errors returned by the Backlog engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BacklogError {
    /// The underlying LSM storage engine reported an error.
    Storage(LsmError),
    /// The back-reference database is inconsistent with the file system state
    /// supplied to the verification walker.
    VerificationFailed {
        /// Number of mismatches discovered.
        mismatches: u64,
    },
    /// Crash recovery could not proceed: the device holds no valid
    /// superblock, the manifest is corrupt or truncated, the recorded
    /// configuration disagrees with the one supplied to
    /// [`BacklogEngine::open`](crate::BacklogEngine::open), or a journal
    /// entry failed to decode.
    Recovery {
        /// Human-readable description of what was found.
        detail: String,
    },
    /// The on-device journal ring has no room for the pending group: the
    /// untruncated region (the groups holding an entry the last consistency
    /// point's flush did not cover) plus the pending entries exceed the
    /// ring. Take a consistency point — it frees every group it covers and
    /// drops the pending entries it made durable — or grow
    /// `journal_ring_pages`.
    JournalFull {
        /// Ring capacity in pages.
        ring_pages: u64,
        /// Pages the pending group would need on top of the live region.
        needed_pages: u64,
    },
    /// A [`MaintenancePlan`](crate::MaintenancePlan) named a partition the
    /// engine's partitioning does not have.
    InvalidPartition {
        /// The partition index asked for.
        partition: u32,
        /// How many partitions the engine has.
        partitions: u32,
    },
}

impl fmt::Display for BacklogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BacklogError::Storage(e) => write!(f, "storage error: {e}"),
            BacklogError::VerificationFailed { mismatches } => {
                write!(
                    f,
                    "back reference verification failed with {mismatches} mismatches"
                )
            }
            BacklogError::Recovery { detail } => {
                write!(f, "crash recovery failed: {detail}")
            }
            BacklogError::JournalFull {
                ring_pages,
                needed_pages,
            } => {
                write!(
                    f,
                    "journal ring full: group needs {needed_pages} more pages \
                     than the {ring_pages}-page ring can hold before the next \
                     consistency point"
                )
            }
            BacklogError::InvalidPartition {
                partition,
                partitions,
            } => {
                write!(
                    f,
                    "partition {partition} out of range: the engine has {partitions} partitions"
                )
            }
        }
    }
}

impl std::error::Error for BacklogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BacklogError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LsmError> for BacklogError {
    fn from(e: LsmError) -> Self {
        BacklogError::Storage(e)
    }
}

impl From<DeviceError> for BacklogError {
    fn from(e: DeviceError) -> Self {
        BacklogError::Storage(LsmError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: BacklogError = LsmError::UnsortedInput.into();
        assert!(matches!(e, BacklogError::Storage(_)));
        assert!(e.to_string().contains("storage error"));
        assert!(std::error::Error::source(&e).is_some());

        let e: BacklogError = DeviceError::NoSuchFile { file: 3 }.into();
        assert!(matches!(e, BacklogError::Storage(LsmError::Device(_))));

        let v = BacklogError::VerificationFailed { mismatches: 2 };
        assert!(v.to_string().contains('2'));
        assert!(std::error::Error::source(&v).is_none());
    }
}
