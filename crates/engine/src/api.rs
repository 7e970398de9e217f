//! User-facing job API: mappers, reducers, job descriptions.

use std::sync::Arc;

/// Emits intermediate or final key/value pairs. The strings are borrowed:
/// the receiver copies them into whatever storage it keeps.
pub type Emit<'a> = dyn FnMut(&str, &str) + 'a;

/// The map function: called once per input line (Hadoop's TextInputFormat
/// semantics — key is the byte offset, value the line).
pub trait Mapper: Send + Sync {
    /// Process one input record.
    fn map(&self, offset: u64, line: &str, emit: &mut Emit<'_>);
}

/// The reduce function: called once per distinct key with all its values.
pub trait Reducer: Send + Sync {
    /// Process one key group.
    fn reduce(&self, key: &str, values: &[&str], emit: &mut Emit<'_>);
}

/// A runnable MapReduce job.
#[derive(Clone)]
pub struct EngineJob {
    /// Display name.
    pub name: String,
    /// Map function.
    pub mapper: Arc<dyn Mapper>,
    /// Reduce function.
    pub reducer: Arc<dyn Reducer>,
    /// Number of reduce tasks (= shuffle partitions).
    pub n_reduces: usize,
}

impl EngineJob {
    /// A job named `name` over the given user code.
    pub fn new(
        name: impl Into<String>,
        mapper: Arc<dyn Mapper>,
        reducer: Arc<dyn Reducer>,
        n_reduces: usize,
    ) -> Self {
        assert!(n_reduces > 0, "jobs need at least one reduce partition");
        Self { name: name.into(), mapper, reducer, n_reduces }
    }
}

/// Re-exported from [`pnats_core::partition`] — one definition shared by
/// every runtime (engine, simulator shuffle model, cluster).
pub use pnats_core::partition::partition_of;

#[cfg(test)]
mod tests {
    use super::*;

    struct Identity;
    impl Mapper for Identity {
        fn map(&self, _o: u64, line: &str, emit: &mut Emit<'_>) {
            emit(line, "1");
        }
    }
    impl Reducer for Identity {
        fn reduce(&self, key: &str, values: &[&str], emit: &mut Emit<'_>) {
            emit(key, &values.len().to_string());
        }
    }

    #[test]
    fn partition_reexport_is_the_core_definition() {
        assert_eq!(partition_of("hello", 157), pnats_core::partition_of("hello", 157));
    }

    #[test]
    fn job_construction() {
        let j = EngineJob::new("j", Arc::new(Identity), Arc::new(Identity), 3);
        assert_eq!(j.name, "j");
        assert_eq!(j.n_reduces, 3);
    }

    #[test]
    #[should_panic(expected = "at least one reduce")]
    fn zero_reduces_rejected() {
        EngineJob::new("j", Arc::new(Identity), Arc::new(Identity), 0);
    }
}
