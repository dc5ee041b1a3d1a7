//! A1 (paper footnote 4): the model-based star size estimator. One stage
//! invocation evaluates one sampler on the shared Epinions stand-in and
//! renders its complete table.

use super::StageCtx;
use crate::report::{fmt_nrmse, log_sizes};
use crate::runner::{JobOutput, ReportSection};
use crate::{EngineError, Scale};
use cgte_core::category_size::{star_sizes_acc, StarSizeOptions};
use cgte_core::{estimate_stream_into, StreamEstimate};
use cgte_eval::{median, Table};
use cgte_sampling::{
    AnySampler, NodeSampler, ObservationContext, ObservationStream, RandomWalk, UniformIndependence,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Evaluates induced / plug-in star / model-based star sizes for one
/// sampler; `sampler` parameter is `"uis"` or `"rw"`.
pub fn model_based(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let built = ctx.graph()?;
    let g = &built.graph;
    let p = built.partition();
    let reps = ctx.usize_param("reps", 40)?;
    let sizes = match ctx.scale {
        Scale::Quick => log_sizes(100, 1000, 3),
        Scale::Default => log_sizes(200, 20_000, 5),
        Scale::Full | Scale::Huge => log_sizes(1000, 100_000, 5),
    };
    let (sampler, label) = match ctx.str_param("sampler")? {
        "uis" => (AnySampler::Uis(UniformIndependence), "UIS"),
        "rw" => (AnySampler::Rw(RandomWalk::new().burn_in(2000)), "RW"),
        other => {
            return Err(EngineError::msg(format!(
                "unknown A1 sampler {other:?} (known: uis, rw)"
            )))
        }
    };

    let truth: Vec<f64> = p.sizes().iter().map(|&s| s as f64).collect();
    let population = g.num_nodes() as f64;
    let num_c = p.num_categories();

    let mut t = Table::new(
        ["|S|", "induced", "star(plug-in k̂_A)", "star(k̂_A = k̂_V)"]
            .map(String::from)
            .to_vec(),
    );
    let obs = ObservationContext::new(g, p);
    let mut stream = ObservationStream::new(num_c);
    let mut snap = StreamEstimate::new(num_c);
    let model_opts = StarSizeOptions {
        model_based_mean_degree: true,
    };
    // sum of squared errors [estimator][size][category]
    let mut errs = vec![vec![vec![0.0f64; num_c]; sizes.len()]; 3];
    for rep in 0..reps {
        let mut rng = StdRng::seed_from_u64(ctx.seed + 1000 + rep as u64);
        let nodes = sampler.sample(g, *sizes.last().unwrap(), &mut rng);
        // One stream per replicate, grown to each (ascending) size.
        stream.reset();
        for (si, &s) in sizes.iter().enumerate() {
            stream.ingest_sampler(&obs, &nodes[stream.len()..s], &sampler, sampler.design());
            estimate_stream_into(
                stream.star(),
                stream.induced(),
                population,
                &StarSizeOptions::default(),
                false,
                &mut snap,
            );
            let model = star_sizes_acc(stream.star(), population, &model_opts);
            for c in 0..num_c {
                errs[0][si][c] += (snap.sizes_induced[c] - truth[c]).powi(2);
                errs[1][si][c] += (snap.sizes_star[c].unwrap_or(0.0) - truth[c]).powi(2);
                errs[2][si][c] += (model[c].unwrap_or(0.0) - truth[c]).powi(2);
            }
        }
    }
    for (si, &s) in sizes.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for e in &errs {
            let per_cat: Vec<f64> = (0..num_c)
                .filter(|&c| truth[c] > 0.0)
                .map(|c| (e[si][c] / reps as f64).sqrt() / truth[c])
                .collect();
            row.push(fmt_nrmse(median(&per_cat).unwrap_or(f64::NAN)));
        }
        t.row(row);
    }
    Ok(JobOutput::Sections(vec![ReportSection::Table {
        name: format!("ablation_model_based_{}", label.to_lowercase()),
        heading: format!(
            "A1 ({label}): median NRMSE(|Â|) across {num_c} categories, Epinions stand-in"
        ),
        table: t,
    }]))
}
