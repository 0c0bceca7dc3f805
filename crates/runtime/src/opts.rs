//! Optimization switches of the HeteroDoop compiler/runtime — the
//! individually ablatable effects of the paper's Fig. 7.

/// Which compiler/runtime optimizations are active for a GPU task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// Vectorized (char4-style, coalesced) KV writes in the map kernel
    /// (Fig. 7c).
    pub vectorize_map: bool,
    /// Vectorized KV reads/writes in the combine kernel (Fig. 7b).
    pub vectorize_combine: bool,
    /// Place `sharedRO`/`texture` data in the texture memory instead of
    /// plain global memory (Fig. 7a).
    pub texture: bool,
    /// Threadblock-level record stealing instead of static contiguous
    /// record partitioning (Fig. 7d).
    pub record_stealing: bool,
    /// Compact the global KV store before sorting (Fig. 7e).
    pub aggregate_before_sort: bool,
}

impl OptFlags {
    /// Everything on — the optimized configuration of Figs. 4–6.
    pub fn all() -> Self {
        OptFlags {
            vectorize_map: true,
            vectorize_combine: true,
            texture: true,
            record_stealing: true,
            aggregate_before_sort: true,
        }
    }

    /// Everything off — the "baseline translated code" of Fig. 5.
    pub fn none() -> Self {
        OptFlags {
            vectorize_map: false,
            vectorize_combine: false,
            texture: false,
            record_stealing: false,
            aggregate_before_sort: false,
        }
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(OptFlags::all().texture);
        assert!(!OptFlags::none().record_stealing);
        assert_eq!(OptFlags::default(), OptFlags::all());
    }

    #[test]
    fn single_flag_ablation() {
        let mut o = OptFlags::all();
        o.aggregate_before_sort = false;
        assert!(o.vectorize_map && !o.aggregate_before_sort);
    }
}
