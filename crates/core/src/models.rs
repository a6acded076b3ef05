//! Execution model definitions (paper §IV).

/// The execution models implemented by the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecutionModel {
    /// Operator-at-a-time: every input placed wholly on the device before
    /// execution (the non-scalable baseline of Fig. 7).
    OperatorAtATime,
    /// Naive chunked execution (Algorithm 1): per chunk — route, allocate,
    /// execute; transfer and compute strictly serialized, pageable memory.
    Chunked,
    /// Pipelined execution (Algorithm 2): the next chunk's copy overlaps the
    /// current chunk's compute, as far ahead as the staging buffers allow
    /// (the paper's `fetched_until`/`processed_until` ordering, computed by
    /// `timeline::overlapped_makespan` on the modeled clock); pageable
    /// memory, staging allocated once.
    Pipelined,
    /// 4-phase execution, chunked flavor (Algorithm 3 without overlap):
    /// stage dual *pinned* buffers once, copy-compute serially, delete.
    FourPhaseChunked,
    /// 4-phase execution, pipelined flavor (Algorithm 3): dual pinned
    /// buffers, copy overlapped with compute.
    FourPhasePipelined,
}

/// How a model stages and schedules chunk transfers — the knobs the engine
/// is parameterized by (one engine, five models).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Stream chunks (false = whole inputs at once).
    pub chunked: bool,
    /// Stage chunk uploads in pinned memory.
    pub pinned: bool,
    /// Overlap transfer with compute on the modeled timeline (the device's
    /// copy engine runs beside its compute units; the host does not thread).
    pub overlap: bool,
    /// Allocate staging buffers once up front (4-phase stage phase) instead
    /// of allocating per chunk (Algorithm 1's in-loop `prepare_memory`).
    pub stage_once: bool,
    /// Number of staging buffers per input (dual memories in Fig. 8): the
    /// slots a stage-once model allocates, and how many chunks the modeled
    /// transfer may run ahead of compute.
    pub staging_buffers: usize,
}

impl ExecutionModel {
    /// All models, in the paper's presentation order.
    pub const ALL: [ExecutionModel; 5] = [
        ExecutionModel::OperatorAtATime,
        ExecutionModel::Chunked,
        ExecutionModel::Pipelined,
        ExecutionModel::FourPhaseChunked,
        ExecutionModel::FourPhasePipelined,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionModel::OperatorAtATime => "operator-at-a-time",
            ExecutionModel::Chunked => "chunked",
            ExecutionModel::Pipelined => "pipelined",
            ExecutionModel::FourPhaseChunked => "4phase-chunked",
            ExecutionModel::FourPhasePipelined => "4phase-pipelined",
        }
    }

    /// The engine configuration implementing this model.
    pub fn config(self) -> ModelConfig {
        match self {
            ExecutionModel::OperatorAtATime => ModelConfig {
                chunked: false,
                pinned: false,
                overlap: false,
                stage_once: true,
                staging_buffers: 1,
            },
            ExecutionModel::Chunked => ModelConfig {
                chunked: true,
                pinned: false,
                overlap: false,
                stage_once: false,
                staging_buffers: 1,
            },
            ExecutionModel::Pipelined => ModelConfig {
                chunked: true,
                pinned: false,
                overlap: true,
                stage_once: true,
                staging_buffers: 2,
            },
            ExecutionModel::FourPhaseChunked => ModelConfig {
                chunked: true,
                pinned: true,
                overlap: false,
                stage_once: true,
                staging_buffers: 2,
            },
            ExecutionModel::FourPhasePipelined => ModelConfig {
                chunked: true,
                pinned: true,
                overlap: true,
                stage_once: true,
                staging_buffers: 2,
            },
        }
    }
}

impl std::fmt::Display for ExecutionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_paper_semantics() {
        let oaat = ExecutionModel::OperatorAtATime.config();
        assert!(!oaat.chunked);

        let chunked = ExecutionModel::Chunked.config();
        assert!(chunked.chunked && !chunked.pinned && !chunked.overlap);
        assert!(!chunked.stage_once, "Algorithm 1 allocates inside the loop");

        let pipe = ExecutionModel::Pipelined.config();
        assert!(pipe.overlap && !pipe.pinned);

        let fpc = ExecutionModel::FourPhaseChunked.config();
        assert!(fpc.pinned && !fpc.overlap && fpc.stage_once);
        assert_eq!(fpc.staging_buffers, 2, "dual memories (Fig. 8)");

        let fpp = ExecutionModel::FourPhasePipelined.config();
        assert!(fpp.pinned && fpp.overlap);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = ExecutionModel::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
