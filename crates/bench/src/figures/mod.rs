//! One module per figure of the paper's evaluation, plus ablations.

pub mod ablations;
pub mod ext_gold;
pub mod ext_policy;
pub mod fig1;
pub mod fig2a;
pub mod fig2b;
pub mod fig2c;
pub mod fig3;
pub mod fig4;
pub mod fig5a;
pub mod fig5b;
pub mod fig5c;

use crate::{FigureResult, RunOptions};

/// Registry entry binding a figure id to its runner and the repetition
/// count the default `figures --all` run uses (real-data figures
/// re-generate whole datasets per repetition and need fewer).
pub struct FigureSpec {
    /// Stable id (`fig1` … `fig5c`).
    pub id: &'static str,
    /// Default repetitions for the full run.
    pub default_reps: usize,
    /// The runner.
    pub run: fn(&RunOptions) -> FigureResult,
}

/// All figures, in paper order.
pub fn all_figures() -> Vec<FigureSpec> {
    vec![
        FigureSpec {
            id: "fig1",
            default_reps: 500,
            run: fig1::run,
        },
        FigureSpec {
            id: "fig2a",
            default_reps: 500,
            run: fig2a::run,
        },
        FigureSpec {
            id: "fig2b",
            default_reps: 500,
            run: fig2b::run,
        },
        FigureSpec {
            id: "fig2c",
            default_reps: 500,
            run: fig2c::run,
        },
        FigureSpec {
            id: "fig3",
            default_reps: 100,
            run: fig3::run,
        },
        FigureSpec {
            id: "fig4",
            default_reps: 100,
            run: fig4::run,
        },
        FigureSpec {
            id: "fig5a",
            default_reps: 500,
            run: fig5a::run,
        },
        FigureSpec {
            id: "fig5b",
            default_reps: 200,
            run: fig5b::run,
        },
        FigureSpec {
            id: "fig5c",
            default_reps: 30,
            run: fig5c::run,
        },
    ]
}

/// The ablation and extension experiments (not figures of the paper;
/// run with `figures --ablations`).
pub fn ablation_figures() -> Vec<FigureSpec> {
    vec![
        FigureSpec {
            id: "abl_collusion",
            default_reps: 40,
            run: ablations::collusion,
        },
        FigureSpec {
            id: "abl_prune",
            default_reps: 15,
            run: ablations::pruning_threshold,
        },
        FigureSpec {
            id: "abl_pairing",
            default_reps: 60,
            run: ablations::pairing_strategy,
        },
        FigureSpec {
            id: "abl_degeneracy",
            default_reps: 40,
            run: ablations::degeneracy_policy,
        },
        FigureSpec {
            id: "abl_kary_m",
            default_reps: 20,
            run: ablations::kary_m_sweep,
        },
        FigureSpec {
            id: "ext_kary_acc",
            default_reps: 40,
            run: ablations::kary_m_accuracy,
        },
        FigureSpec {
            id: "ext_policy",
            default_reps: 60,
            run: ext_policy::quality,
        },
        FigureSpec {
            id: "ext_policy_cost",
            default_reps: 60,
            run: ext_policy::cost,
        },
        FigureSpec {
            id: "ext_gold",
            default_reps: 100,
            run: ext_gold::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_figure_once() {
        let ids: Vec<&str> = all_figures().iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            vec![
                "fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5a", "fig5b", "fig5c"
            ]
        );
    }

    #[test]
    fn ablation_registry_ids_are_unique_and_stable() {
        let ids: Vec<&str> = ablation_figures().iter().map(|f| f.id).collect();
        assert_eq!(
            ids,
            vec![
                "abl_collusion",
                "abl_prune",
                "abl_pairing",
                "abl_degeneracy",
                "abl_kary_m",
                "ext_kary_acc",
                "ext_policy",
                "ext_policy_cost",
                "ext_gold",
            ]
        );
        // No id collides with a paper figure.
        for id in ids {
            assert!(all_figures().iter().all(|f| f.id != id));
        }
    }
}
