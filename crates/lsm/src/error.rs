use std::fmt;

use blockdev::DeviceError;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LsmError>;

/// Errors returned by the LSM storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LsmError {
    /// The underlying simulated device reported an error.
    Device(DeviceError),
    /// A run file is structurally inconsistent (bad page header, truncated
    /// record area, or an internal pointer outside the file).
    CorruptRun {
        /// Human-readable detail of what was found.
        detail: String,
    },
    /// Records handed to a bulk loader were not sorted.
    UnsortedInput,
}

impl fmt::Display for LsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsmError::Device(e) => write!(f, "device error: {e}"),
            LsmError::CorruptRun { detail } => write!(f, "corrupt run file: {detail}"),
            LsmError::UnsortedInput => write!(f, "bulk-load input records were not sorted"),
        }
    }
}

impl std::error::Error for LsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsmError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for LsmError {
    fn from(e: DeviceError) -> Self {
        LsmError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_error_converts_and_sources() {
        let e: LsmError = DeviceError::NoSuchFile { file: 1 }.into();
        assert!(matches!(e, LsmError::Device(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("device error"));
    }

    #[test]
    fn display_messages() {
        assert!(LsmError::UnsortedInput.to_string().contains("not sorted"));
        assert!(LsmError::CorruptRun {
            detail: "bad".into()
        }
        .to_string()
        .contains("bad"));
    }
}
