//! Stages over the Facebook-like crawl simulation (fig5–fig7, table2, and
//! the S-WRW stratification ablation). Every stage reads the
//! simulation/crawl bundle from the shared cache, folds the crawled nodes
//! into an [`ObservationStream`] (weighted or not by the crawl's design),
//! and reads its estimates from the stream.

use super::StageCtx;
use crate::report::log_sizes;
use crate::runner::{JobOutput, NamedSeries, ReportSection};
use crate::{EngineError, Scale};
use cgte_core::category_size::{star_sizes_acc, StarSizeOptions};
use cgte_core::{estimate_category_graph, estimate_stream_into, SizeMethod, StreamEstimate};
use cgte_datasets::{CrawlDataset, CrawlType, FacebookSim};
use cgte_eval::{median, Table};
use cgte_graph::{CategoryGraph, CategoryId, CategoryMatrix, Partition};
use cgte_sampling::{
    DesignKind, NodeSampler, ObservationContext, ObservationStream, Swrw, WalkStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rank positions reported in fig5's printed tables.
fn ranks(n: usize) -> Vec<usize> {
    [1usize, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000]
        .into_iter()
        .filter(|&r| r <= n)
        .collect()
}

fn fig5_panel(
    crawls: &[CrawlDataset],
    partition: &Partition,
    n_categories: usize,
    rank_label: &str,
    with_median: bool,
) -> Table {
    let mut per_crawl: Vec<(String, Vec<usize>)> = Vec::new();
    for ds in crawls {
        let mut counts = ds.samples_per_category(partition);
        counts.truncate(n_categories); // drop the undeclared pseudo-category
        counts.sort_unstable_by(|a, b| b.cmp(a));
        per_crawl.push((ds.name.clone(), counts));
    }
    let mut headers = vec![rank_label.to_string()];
    headers.extend(per_crawl.iter().map(|(n, _)| n.clone()));
    let mut t = Table::new(headers);
    for r in ranks(n_categories) {
        let mut row = vec![r.to_string()];
        for (_, counts) in &per_crawl {
            row.push(counts[r - 1].to_string());
        }
        t.row(row);
    }
    if with_median {
        let mut row = vec!["median".to_string()];
        for (_, counts) in &per_crawl {
            row.push(counts[counts.len() / 2].to_string());
        }
        t.row(row);
    }
    t
}

/// Fig. 5 (top): samples per regional category, 2009 crawls.
pub fn fig5_2009(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let t = fig5_panel(
        &bundle.c09,
        &bundle.sim.regions,
        bundle.sim.config().num_regions,
        "region rank",
        false,
    );
    Ok(JobOutput::Sections(vec![ReportSection::Table {
        name: "fig5_2009".into(),
        heading: "Fig. 5 (top): #samples per regional category, 2009 crawls".into(),
        table: t,
    }]))
}

/// Fig. 5 (bottom): samples per college, 2010 crawls.
pub fn fig5_2010(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let t = fig5_panel(
        &bundle.c10,
        &bundle.sim.colleges,
        bundle.sim.config().num_colleges,
        "college rank",
        true,
    );
    Ok(JobOutput::Sections(vec![ReportSection::Table {
        name: "fig5_2010".into(),
        heading: "Fig. 5 (bottom): #samples per college, 2010 crawls".into(),
        table: t,
    }]))
}

// ---------------------------------------------------------------------------
// fig6: per-crawl estimator evaluation

type Pair = (CategoryId, CategoryId);

/// Per-walk, per-|S| estimates for one crawl dataset.
struct CrawlEstimates {
    /// `sizes_ind[s][walk][cat]`
    sizes_ind: Vec<Vec<Vec<f64>>>,
    sizes_star: Vec<Vec<Vec<f64>>>,
    /// `weights_ind[s][walk][pair]` aligned with the tracked pair list.
    weights_ind: Vec<Vec<Vec<f64>>>,
    weights_star: Vec<Vec<Vec<f64>>>,
}

fn evaluate_crawl(
    sim: &FacebookSim,
    ds: &CrawlDataset,
    p: &Partition,
    pairs: &[Pair],
    sizes: &[usize],
) -> CrawlEstimates {
    let g = &sim.graph;
    let ctx = ObservationContext::new(g, p);
    let population = g.num_nodes() as f64;
    let sampler = sim.sampler_for(ds.crawl);
    let opts = StarSizeOptions::default();
    let mut stream = ObservationStream::new(p.num_categories());
    let mut snap = StreamEstimate::new(p.num_categories());
    let mut out = CrawlEstimates {
        sizes_ind: vec![Vec::new(); sizes.len()],
        sizes_star: vec![Vec::new(); sizes.len()],
        weights_ind: vec![Vec::new(); sizes.len()],
        weights_star: vec![Vec::new(); sizes.len()],
    };
    for walk in ds.walks.walks() {
        // One stream per walk, grown to each (ascending) prefix size.
        stream.reset();
        for (si, &s) in sizes.iter().enumerate() {
            let end = s.min(walk.len());
            stream.ingest_sampler(&ctx, &walk[stream.len()..end], &sampler, sampler.design());
            estimate_stream_into(
                stream.star(),
                stream.induced(),
                population,
                &opts,
                true,
                &mut snap,
            );
            let s_star = snap.sizes_star.iter().map(|x| x.unwrap_or(0.0)).collect();
            out.sizes_ind[si].push(snap.sizes_induced.clone());
            out.sizes_star[si].push(s_star);
            let (w_ind, w_star) = (&snap.weights_induced, &snap.weights_star);
            out.weights_ind[si].push(pairs.iter().map(|&(a, b)| w_ind.get(a, b)).collect());
            out.weights_star[si].push(pairs.iter().map(|&(a, b)| w_star.get(a, b)).collect());
        }
    }
    out
}

/// Median-across-targets NRMSE for one estimate tensor at one |S| index;
/// `paper_style` replaces the truth with the all-walk mean at the largest
/// |S| (the paper's §7.2 protocol for unknown ground truth).
fn median_nrmse(
    per_size: &[Vec<Vec<f64>>],
    si: usize,
    targets: &[usize],
    truth: &[f64],
    paper_style: bool,
) -> f64 {
    let last = per_size.len() - 1;
    let vals: Vec<f64> = targets
        .iter()
        .filter_map(|&t| {
            let tr = if paper_style {
                let walks = &per_size[last];
                walks.iter().map(|w| w[t]).sum::<f64>() / walks.len() as f64
            } else {
                truth[t]
            };
            if tr == 0.0 || !tr.is_finite() {
                return None;
            }
            let ests: Vec<f64> = per_size[si].iter().map(|w| w[t]).collect();
            let mse = ests.iter().map(|e| (e - tr).powi(2)).sum::<f64>() / ests.len() as f64;
            Some(mse.sqrt() / tr.abs())
        })
        .filter(|x| x.is_finite())
        .collect();
    median(&vals).unwrap_or(f64::NAN)
}

/// Evaluates one crawl dataset for fig6: median-NRMSE columns per
/// (panel, truth-style, estimator), plus the evaluated sizes and the
/// tracked pair count as metadata columns.
pub fn fig6_eval(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let sim = &bundle.sim;
    let crawl = ctx.str_param("crawl")?;
    let top = ctx.usize_param("top", 100)?;
    let (_, p09, _, p10) = bundle
        .crawl_params
        .ok_or_else(|| EngineError::msg("fig6-eval needs a simulation with crawls = true"))?;

    let (ds, is09) = bundle
        .c09
        .iter()
        .find(|d| d.name == crawl)
        .map(|d| (d, true))
        .or_else(|| {
            bundle
                .c10
                .iter()
                .find(|d| d.name == crawl)
                .map(|d| (d, false))
        })
        .ok_or_else(|| EngineError::msg(format!("unknown crawl dataset {crawl:?}")))?;

    let (partition, exact, n_categories, pair_cap) = if is09 {
        (
            &sim.regions,
            bundle.exact_regions(),
            sim.config().num_regions,
            15usize,
        )
    } else {
        (
            &sim.colleges,
            bundle.exact_colleges(),
            sim.config().num_colleges,
            12usize,
        )
    };
    let per_walk = if is09 { p09 } else { p10 };
    let sizes = log_sizes(per_walk / 10, per_walk, 4);

    // Targets: top categories by true size; weight pairs among the first
    // `pair_cap` categories (sizes are Zipf-ranked).
    let top_targets: Vec<usize> = (0..top.min(n_categories)).collect();
    let mut pairs: Vec<Pair> = Vec::new();
    for a in 0..pair_cap.min(n_categories) as u32 {
        for b in (a + 1)..pair_cap.min(n_categories) as u32 {
            if exact.weight(a, b) > 0.0 {
                pairs.push((a, b));
            }
        }
    }
    let truth_sizes: Vec<f64> = (0..partition.num_categories())
        .map(|c| partition.category_size(c as u32) as f64)
        .collect();
    let truth_pairs: Vec<f64> = pairs.iter().map(|&(a, b)| exact.weight(a, b)).collect();

    let est = evaluate_crawl(sim, ds, partition, &pairs, &sizes);
    let pair_idx: Vec<usize> = (0..pairs.len()).collect();

    let mut cols = vec![
        NamedSeries {
            label: "sizes".into(),
            values: sizes.iter().map(|&s| s as f64).collect(),
        },
        NamedSeries {
            label: "npairs".into(),
            values: vec![pairs.len() as f64],
        },
    ];
    for (panel, tensor_ind, tensor_star, targets, truth) in [
        (
            "size",
            &est.sizes_ind,
            &est.sizes_star,
            &top_targets,
            &truth_sizes,
        ),
        (
            "weight",
            &est.weights_ind,
            &est.weights_star,
            &pair_idx,
            &truth_pairs,
        ),
    ] {
        for (style, paper) in [("true", false), ("paper", true)] {
            for (est_name, tensor) in [("induced", tensor_ind), ("star", tensor_star)] {
                cols.push(NamedSeries {
                    label: format!("{panel}/{style}/{est_name}"),
                    values: (0..sizes.len())
                        .map(|si| median_nrmse(tensor, si, targets, truth, paper))
                        .collect(),
                });
            }
        }
    }
    Ok(JobOutput::Columns(cols))
}

// ---------------------------------------------------------------------------
// fig7: estimated category graph exports

/// Averages several estimated category graphs edge-wise and size-wise
/// (§7.3.1: "for every edge, we take the average of the three estimates").
fn average_graphs(graphs: &[CategoryGraph]) -> CategoryGraph {
    assert!(!graphs.is_empty());
    let num_c = graphs[0].num_categories();
    let mut sizes = vec![0.0; num_c];
    for g in graphs {
        for (c, size) in sizes.iter_mut().enumerate() {
            *size += g.size(c as CategoryId) / graphs.len() as f64;
        }
    }
    let mut weights = CategoryMatrix::zeros(num_c);
    for g in graphs {
        for e in g.edges() {
            weights.add(e.a, e.b, e.weight / graphs.len() as f64);
        }
    }
    CategoryGraph::from_weights(sizes, weights)
}

/// Estimates one category graph from every walk of a crawl combined.
fn estimate_from_crawl(
    sim: &FacebookSim,
    ds: &CrawlDataset,
    p: &Partition,
    size_method: SizeMethod,
) -> CategoryGraph {
    let sampler = sim.sampler_for(ds.crawl);
    let mut stream = ObservationStream::new(p.num_categories());
    stream.ingest_sampler(
        &ObservationContext::new(&sim.graph, p),
        &ds.walks.combined(),
        &sampler,
        sampler.design(),
    );
    estimate_category_graph(&stream, sim.graph.num_nodes() as f64, size_method)
}

/// Renders one fig7 export exactly like the legacy `export()` helper: the
/// heading + strongest-links report on stdout, the DOT/JSON/GraphML/CSV
/// dumps as file sections.
fn export_sections(
    name: &str,
    heading: &str,
    cg: &CategoryGraph,
    labels: Vec<String>,
) -> Vec<ReportSection> {
    let opts = cgte_viz::ExportOptions {
        labels,
        top_k: 200,
        ..Default::default()
    };
    let mut sections = vec![ReportSection::Text(format!(
        "\n## {heading}\n\n{}",
        cgte_viz::top_edges_report(cg, &opts, 15)
    ))];
    for (ext, content) in [
        ("dot", cgte_viz::to_dot(cg, &opts)),
        ("json", cgte_viz::to_json(cg, &opts)),
        ("graphml", cgte_viz::to_graphml(cg, &opts)),
        ("csv", cgte_viz::to_csv_edges(cg, &opts)),
    ] {
        sections.push(ReportSection::File {
            name: name.to_string(),
            ext: ext.to_string(),
            content,
        });
    }
    sections
}

/// Fig. 7(a): country-to-country graph averaged over the 2009 crawls,
/// plus the top-10 sanity line.
pub fn fig7_countries(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let sim = &bundle.sim;
    let countries = sim.countries();
    let nc = sim.config().num_countries;
    let estimates: Vec<CategoryGraph> = bundle
        .c09
        .iter()
        .map(|ds| estimate_from_crawl(sim, ds, &countries, SizeMethod::Induced))
        .collect();
    let avg = average_graphs(&estimates);
    let mut labels: Vec<String> = (0..nc).map(|c| format!("country-{c:02}")).collect();
    labels.push("undeclared".into());
    let mut sections = export_sections(
        "fig7a_countries",
        "Fig. 7(a): country-to-country friendship graph (avg of UIS/MHRW/RW estimates)",
        &avg,
        labels,
    );
    // Sanity line: compare against the exact country graph.
    let exact = CategoryGraph::exact(&sim.graph, &countries);
    let top_est: Vec<_> = avg
        .edges_by_weight()
        .into_iter()
        .take(10)
        .map(|e| (e.a, e.b))
        .collect();
    let top_true: Vec<_> = exact
        .edges_by_weight()
        .into_iter()
        .take(10)
        .map(|e| (e.a, e.b))
        .collect();
    let overlap = top_est.iter().filter(|p| top_true.contains(p)).count();
    sections.push(ReportSection::Text(format!(
        "\nsanity: {overlap}/10 of the estimated top-10 country links are in the true top-10\n"
    )));
    Ok(JobOutput::Sections(sections))
}

/// Fig. 7(b): the intra-country region graph of the largest country.
pub fn fig7_regions(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let sim = &bundle.sim;
    let n_regions = sim.config().num_regions;
    let big_country: CategoryId = 0;
    let mut map: Vec<CategoryId> = Vec::with_capacity(n_regions + 1);
    let mut kept = 0u32;
    for r in 0..n_regions {
        if sim.region_to_country[r] == big_country {
            map.push(kept);
            kept += 1;
        } else {
            map.push(u32::MAX); // placeholder, fixed below
        }
    }
    map.push(u32::MAX);
    let elsewhere = kept;
    for m in map.iter_mut() {
        if *m == u32::MAX {
            *m = elsewhere;
        }
    }
    let na_partition = sim
        .regions
        .merge(&map, (kept + 1) as usize)
        .expect("valid merge map");
    let estimates: Vec<CategoryGraph> = bundle
        .c09
        .iter()
        .map(|ds| estimate_from_crawl(sim, ds, &na_partition, SizeMethod::Induced))
        .collect();
    let avg = average_graphs(&estimates);
    let mut labels: Vec<String> = (0..kept).map(|r| format!("region-{r:02}")).collect();
    labels.push("elsewhere".into());
    Ok(JobOutput::Sections(export_sections(
        "fig7b_regions",
        &format!(
            "Fig. 7(b): intra-country region graph ({kept} regions of country-00 + elsewhere)"
        ),
        &avg,
        labels,
    )))
}

/// Fig. 7(c): the college-to-college graph from the S-WRW 2010 crawl.
pub fn fig7_colleges(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let sim = &bundle.sim;
    let swrw10 = bundle
        .c10
        .iter()
        .find(|d| d.crawl == CrawlType::Swrw)
        .ok_or_else(|| EngineError::msg("no S-WRW dataset in the 2010 crawls"))?;
    let cg = estimate_from_crawl(
        sim,
        swrw10,
        &sim.colleges,
        SizeMethod::Star(StarSizeOptions::default()),
    );
    let ncol = sim.config().num_colleges;
    let mut labels: Vec<String> = (0..ncol).map(|c| format!("college-{c:03}")).collect();
    labels.push("no-college".into());
    Ok(JobOutput::Sections(export_sections(
        "fig7c_colleges",
        "Fig. 7(c): college-to-college friendship graph (S-WRW10, star sizes)",
        &cg,
        labels,
    )))
}

// ---------------------------------------------------------------------------
// table2

/// Table 2: crawl dataset statistics.
pub fn table2(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let sim = &bundle.sim;
    let n_regions = sim.config().num_regions;
    let n_colleges = sim.config().num_colleges;
    let region_pop: u64 = (0..n_regions as u32)
        .map(|r| sim.regions.category_size(r))
        .sum();
    let college_pop: u64 = (0..n_colleges as u32)
        .map(|c| sim.colleges.category_size(c))
        .sum();
    let n = sim.graph.num_nodes() as f64;

    let mut t = Table::new(
        [
            "Dataset",
            "Studied categories",
            "Crawl type",
            "% categ. samples",
            "# total samples",
        ]
        .map(String::from)
        .to_vec(),
    );
    for ds in &bundle.c09 {
        let frac = ds.studied_fraction(&sim.regions, |c| (c as usize) < n_regions);
        t.row(vec![
            "2009".into(),
            format!(
                "Regional ({n_regions}) — {:.0}% of population",
                100.0 * region_pop as f64 / n
            ),
            ds.name.clone(),
            format!("{:.0}%", 100.0 * frac),
            format!("{}x{}", ds.walks.num_walks(), ds.walks.walk(0).len()),
        ]);
    }
    for ds in &bundle.c10 {
        let frac = ds.studied_fraction(&sim.colleges, |c| (c as usize) < n_colleges);
        t.row(vec![
            "2010".into(),
            format!(
                "Colleges ({n_colleges}) — {:.1}% of population",
                100.0 * college_pop as f64 / n
            ),
            ds.name.clone(),
            format!("{:.0}%", 100.0 * frac),
            format!("{}x{}", ds.walks.num_walks(), ds.walks.walk(0).len()),
        ]);
    }
    Ok(JobOutput::Sections(vec![ReportSection::Table {
        name: "table2".into(),
        heading: "Table 2: Facebook crawl datasets (simulated)".into(),
        table: t,
    }]))
}

// ---------------------------------------------------------------------------
// A3: S-WRW stratification ablation

/// One β column of the A3 sweep: median college-size NRMSE (star sizes)
/// under `γ_C = vol(C)^(−β)` stratification.
pub fn ablation_swrw(ctx: &StageCtx<'_>) -> Result<JobOutput, EngineError> {
    let bundle = ctx.facebook()?;
    let sim = &bundle.sim;
    let beta = ctx.f64_param("beta", 1.0)?;
    let reps = ctx.usize_param("reps", 10)?;
    let sample_sizes = match ctx.scale {
        Scale::Quick => log_sizes(300, 1500, 2),
        _ => log_sizes(1000, 20_000, 3),
    };
    let p = &sim.colleges;
    let n_colleges = sim.config().num_colleges;
    let population = sim.graph.num_nodes() as f64;
    let truth: Vec<f64> = p.sizes().iter().map(|&s| s as f64).collect();

    if !(beta.is_finite() && beta >= 0.0) {
        return Err(EngineError::msg(format!(
            "S-WRW beta must be finite and >= 0, got {beta}"
        )));
    }
    let colleges: Vec<usize> = (0..n_colleges).collect();
    let swrw = Swrw::stratified(&sim.graph, p, beta)
        .ok_or_else(|| EngineError::msg("invalid S-WRW weights"))?
        .burn_in(1000);
    let obs = ObservationContext::new(&sim.graph, p);
    let mut stream = ObservationStream::new(p.num_categories());
    let mut col = Vec::new();
    for &s in &sample_sizes {
        let mut errs = vec![0.0f64; p.num_categories()];
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(ctx.seed + 31 + rep as u64);
            stream.reset();
            stream
                .ingest_walk(
                    &obs,
                    &swrw,
                    DesignKind::Weighted,
                    s,
                    &mut rng,
                    &mut WalkStats::default(),
                )
                .map_err(|e| EngineError::msg(e.to_string()))?;
            let est = star_sizes_acc(stream.star(), population, &StarSizeOptions::default());
            for &c in &colleges {
                errs[c] += (est[c].unwrap_or(0.0) - truth[c]).powi(2);
            }
        }
        let per_cat: Vec<f64> = colleges
            .iter()
            .filter(|&&c| truth[c] > 0.0)
            .map(|&c| (errs[c] / reps as f64).sqrt() / truth[c])
            .collect();
        col.push(median(&per_cat).unwrap_or(f64::NAN));
    }
    Ok(JobOutput::Columns(vec![
        NamedSeries {
            label: "ncolleges".into(),
            values: vec![n_colleges as f64],
        },
        NamedSeries {
            label: format!("β={beta}"),
            values: col,
        },
    ]))
}
