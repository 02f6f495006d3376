//! A container's completion status and the exit code it implies.

/// Completion status of the job a container runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadStatus {
    /// Still training.
    Running,
    /// Converged / finished; the container should exit with code 0.
    Finished,
    /// Crashed; the container should exit with the given nonzero code.
    Failed(i32),
}

impl WorkloadStatus {
    /// The container exit code this status implies: `None` while it runs,
    /// 0 once finished, the crash code once failed.
    pub fn exit_code(self) -> Option<i32> {
        match self {
            WorkloadStatus::Running => None,
            WorkloadStatus::Finished => Some(0),
            WorkloadStatus::Failed(code) => Some(code),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_follows_status() {
        assert_eq!(WorkloadStatus::Running.exit_code(), None);
        assert_eq!(WorkloadStatus::Finished.exit_code(), Some(0));
        assert_eq!(WorkloadStatus::Failed(137).exit_code(), Some(137));
    }
}
