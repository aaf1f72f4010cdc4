//! The typed result of a job: mode-aware outcome, winner breakdown, audit.

use std::io::{self, Write};

use cdp_core::{EvalCounts, EvolutionOutcome, NsgaOutcome, ScatterPoint, ScoreSummary};
use cdp_dataset::generators::DatasetKind;
use cdp_dataset::{SubTable, Table};
use cdp_metrics::Assessment;
use cdp_privacy::PrivacyReport;

use super::Result;

/// The winning protection of a run with its full IL/DR breakdown.
#[derive(Debug, Clone)]
pub struct BestProtection {
    /// Provenance label (method name, possibly evolved far from it).
    pub name: String,
    /// The masked protected columns.
    pub data: SubTable,
    /// The seven-measure assessment of the winner.
    pub assessment: Assessment,
}

/// A Pareto front over (IL, DR): what an NSGA-II job produces instead of a
/// single scalar winner.
///
/// Every front member carries its protected file, so any trade-off point —
/// not just the [`Front::knee`] — can be published via
/// [`JobReport::publish_member`].
#[derive(Debug, Clone)]
pub struct Front {
    /// The final population's non-dominated members with their protected
    /// files and full assessments, IL-ascending.
    pub members: Vec<BestProtection>,
    /// The members' (IL, DR) points, aligned with [`Front::members`].
    pub points: Vec<ScatterPoint>,
    /// Non-dominated front of the *initial* population.
    pub initial: Vec<ScatterPoint>,
    /// All-time front across every individual ever evaluated (monotone in
    /// hypervolume by construction).
    pub archive: Vec<ScatterPoint>,
    /// Hypervolume trajectory: the population front's hypervolume after
    /// each generation, index 0 = initial population.
    pub hypervolume: Vec<f64>,
    /// Total fitness evaluations performed (initial population included).
    pub evaluations: usize,
    /// The same evaluations split into full assessments (the initial
    /// population) and patch-based re-assessments (every offspring).
    pub eval_counts: EvalCounts,
    /// The grammar keys of the objectives the run minimized, in vector
    /// order (always leads with `il, dr`).
    pub objective_keys: Vec<&'static str>,
}

impl Front {
    pub(crate) fn from_outcome(outcome: NsgaOutcome) -> Front {
        let members = outcome
            .front_members
            .into_iter()
            .map(|ind| BestProtection {
                assessment: *ind.assessment(),
                name: ind.name,
                data: ind.data,
            })
            .collect();
        Front {
            members,
            points: outcome.front,
            initial: outcome.initial_front,
            archive: outcome.archive_front,
            hypervolume: outcome.hypervolume_series,
            evaluations: outcome.evaluations,
            eval_counts: outcome.eval_counts,
            objective_keys: outcome.objectives.keys(),
        }
    }

    /// Generations actually executed (the trajectory minus its initial
    /// snapshot).
    pub fn generations_run(&self) -> usize {
        self.hypervolume.len().saturating_sub(1)
    }

    /// Hypervolume of the initial population's front.
    pub fn initial_hypervolume(&self) -> f64 {
        self.hypervolume.first().copied().unwrap_or(0.0)
    }

    /// Hypervolume of the final population's front.
    pub fn final_hypervolume(&self) -> f64 {
        self.hypervolume.last().copied().unwrap_or(0.0)
    }

    /// Index of the knee point: the member closest (in objective space
    /// normalized to the front's extent) to the ideal point — the
    /// balanced trade-off a scalar consumer publishes by default. Works
    /// over the full objective vector (2 or more dimensions); an axis the
    /// whole front shares one value on (zero span) contributes nothing to
    /// any distance instead of poisoning the normalization with 0/0.
    ///
    /// # Panics
    /// Panics on an empty front (pipeline-built fronts never are:
    /// populations are validated non-empty).
    pub fn knee_index(&self) -> usize {
        assert!(!self.points.is_empty(), "a front has at least one member");
        let dims = self.points[0].objectives.len();
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for p in &self.points {
            for d in 0..dims {
                lo[d] = lo[d].min(p.objectives[d]);
                hi[d] = hi[d].max(p.objectives[d]);
            }
        }
        let norm = |v: f64, lo: f64, span: f64| if span > 0.0 { (v - lo) / span } else { 0.0 };
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let dist: f64 = (0..dims)
                    .map(|d| {
                        let x = norm(p.objectives[d], lo[d], hi[d] - lo[d]);
                        x * x
                    })
                    .sum();
                (i, dist)
            })
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite distances"))
            .map(|(i, _)| i)
            .expect("front is non-empty")
    }

    /// The knee-point member (see [`Front::knee_index`]).
    ///
    /// # Panics
    /// Panics when [`Front::members`] is not aligned with
    /// [`Front::points`] (hand-built fronts only; pipeline-built fronts
    /// always align).
    pub fn knee(&self) -> &BestProtection {
        assert_eq!(
            self.members.len(),
            self.points.len(),
            "Front::members must align with Front::points"
        );
        &self.members[self.knee_index()]
    }

    /// Write the `front.csv` artifact: initial, final and archive fronts
    /// as `phase,name,il,dr,score` rows. Runs with extended objective
    /// sets append one column per extra objective (`…,score,eps`);
    /// canonical two-objective runs emit the exact historical format,
    /// byte for byte.
    ///
    /// # Errors
    /// Propagates writer failures.
    pub fn write_front_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        let extra_keys = if self.objective_keys.len() > 2 {
            &self.objective_keys[2..]
        } else {
            &[]
        };
        write!(out, "phase,name,il,dr,score")?;
        for key in extra_keys {
            write!(out, ",{key}")?;
        }
        writeln!(out)?;
        for (phase, points) in [
            ("initial", &self.initial),
            ("final", &self.points),
            ("archive", &self.archive),
        ] {
            for p in points {
                write!(
                    out,
                    "{phase},{},{:.4},{:.4},{:.4}",
                    p.name, p.il, p.dr, p.score
                )?;
                for d in 2..2 + extra_keys.len() {
                    if d < p.objectives.len() {
                        write!(out, ",{:.4}", p.objectives[d])?;
                    } else {
                        // archive points offered outside the optimizer may
                        // carry the bare pair; pad so rows stay rectangular
                        write!(out, ",")?;
                    }
                }
                writeln!(out)?;
            }
        }
        Ok(())
    }

    /// Write the `hypervolume.csv` artifact: the
    /// `generation,hypervolume` trajectory (generation 0 = initial
    /// population).
    ///
    /// # Errors
    /// Propagates writer failures.
    pub fn write_hypervolume_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "generation,hypervolume")?;
        for (generation, value) in self.hypervolume.iter().enumerate() {
            writeln!(out, "{generation},{value:.4}")?;
        }
        Ok(())
    }
}

/// What the optimizer stage of a job produced, by mode.
#[derive(Debug)]
pub enum JobOutcome {
    /// Iteration budget 0: the population was masked and scored, nothing
    /// evolved.
    Scored,
    /// The paper's scalar evolution ran; full telemetry attached.
    Scalar(EvolutionOutcome),
    /// NSGA-II ran; the result is a Pareto front.
    Pareto(Front),
}

impl JobOutcome {
    /// The scalar evolution telemetry, when Algorithm 1 ran.
    pub fn scalar(&self) -> Option<&EvolutionOutcome> {
        match self {
            JobOutcome::Scalar(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// Consume into the scalar telemetry, when Algorithm 1 ran.
    pub fn into_scalar(self) -> Option<EvolutionOutcome> {
        match self {
            JobOutcome::Scalar(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// The Pareto front, when NSGA-II ran.
    pub fn front(&self) -> Option<&Front> {
        match self {
            JobOutcome::Pareto(front) => Some(front),
            _ => None,
        }
    }

    /// Consume into the Pareto front, when NSGA-II ran.
    pub fn into_front(self) -> Option<Front> {
        match self {
            JobOutcome::Pareto(front) => Some(front),
            _ => None,
        }
    }

    /// Whether the job only masked and scored (iteration budget 0).
    pub fn is_scored_only(&self) -> bool {
        matches!(self, JobOutcome::Scored)
    }
}

/// Everything one [`super::ProtectionJob`] produced.
#[derive(Debug)]
pub struct JobReport {
    /// The evaluation dataset kind, when the source was generated.
    pub kind: Option<DatasetKind>,
    /// The full original table the job ran against.
    pub table: Table,
    /// Indices of the protected attributes within [`JobReport::table`].
    pub protected: Vec<usize>,
    /// Number of protections that entered the run.
    pub population_size: usize,
    /// Whether the session served a cached evaluator preparation.
    pub evaluator_reused: bool,
    /// The optimizer's result: scalar telemetry, a Pareto [`Front`], or
    /// [`JobOutcome::Scored`] for mask-and-score jobs.
    pub outcome: JobOutcome,
    /// Final (IL, DR) snapshot of the population — the evolved population
    /// (the front, in NSGA-II mode), or the assessed initial protections
    /// for mask-and-score jobs.
    pub points: Vec<ScatterPoint>,
    /// The winning protection: the scalar winner, or the front's knee
    /// point in NSGA-II mode.
    pub best: BestProtection,
    /// Privacy audit of the winner, when the job enabled it.
    pub privacy: Option<PrivacyReport>,
}

impl JobReport {
    /// The §3.1/§3.2 summary row, when the job ran the scalar optimizer.
    pub fn summary(&self) -> Option<ScoreSummary> {
        self.outcome.scalar().map(EvolutionOutcome::summary)
    }

    /// The scalar evolution telemetry, when Algorithm 1 ran.
    pub fn scalar_outcome(&self) -> Option<&EvolutionOutcome> {
        self.outcome.scalar()
    }

    /// The Pareto front, when the job ran NSGA-II.
    pub fn front(&self) -> Option<&Front> {
        self.outcome.front()
    }

    /// The original protected columns (reference side of every measure).
    pub fn original(&self) -> SubTable {
        self.table
            .subtable(&self.protected)
            .expect("protected indices validated at resolve time")
    }

    /// The publishable file: the full original table with the winning
    /// protected columns substituted. In NSGA-II mode the winner is the
    /// front's knee point ([`Front::knee`]); [`JobReport::publish_member`]
    /// publishes any other trade-off point.
    ///
    /// # Errors
    /// Shape mismatch (cannot happen for reports built by the pipeline).
    pub fn published_best(&self) -> Result<Table> {
        self.publish_member(&self.best)
    }

    /// Publish an arbitrary protection (e.g. a non-knee [`Front`] member)
    /// into the full original table.
    ///
    /// # Errors
    /// Shape mismatch for protections not built against this original.
    pub fn publish_member(&self, member: &BestProtection) -> Result<Table> {
        Ok(self.table.with_subtable(&member.data)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use cdp_core::ObjectiveVector;

    fn pt(name: &str, il: f64, dr: f64) -> ScatterPoint {
        ScatterPoint::from_pair(name.into(), il, dr, il.max(dr))
    }

    fn pt3(name: &str, il: f64, dr: f64, eps: f64) -> ScatterPoint {
        let mut p = pt(name, il, dr);
        p.objectives = ObjectiveVector::from_slice(&[il, dr, eps]);
        p
    }

    fn front_of(points: Vec<ScatterPoint>) -> Front {
        Front {
            members: Vec::new(),
            points,
            initial: Vec::new(),
            archive: Vec::new(),
            hypervolume: vec![0.0, 1.0],
            evaluations: 0,
            eval_counts: EvalCounts::default(),
            objective_keys: vec!["il", "dr"],
        }
    }

    #[test]
    fn knee_picks_the_balanced_point() {
        // corners (0,100) and (100,0) vs a near-ideal middle point
        let front = front_of(vec![
            pt("low-il", 0.0, 100.0),
            pt("knee", 20.0, 20.0),
            pt("low-dr", 100.0, 0.0),
        ]);
        assert_eq!(front.knee_index(), 1);
    }

    #[test]
    fn knee_of_single_point_front_is_that_point() {
        let front = front_of(vec![pt("only", 10.0, 10.0)]);
        assert_eq!(front.knee_index(), 0);
    }

    #[test]
    fn knee_handles_degenerate_spans() {
        // all members share one IL: the DR axis decides
        let front = front_of(vec![pt("a", 5.0, 30.0), pt("b", 5.0, 10.0)]);
        assert_eq!(front.knee_index(), 1);
        // every axis flat: distances all zero, the first member wins
        let front = front_of(vec![pt("a", 5.0, 5.0), pt("b", 5.0, 5.0)]);
        assert_eq!(front.knee_index(), 0);
    }

    #[test]
    fn knee_works_over_three_objectives() {
        let mut front = front_of(vec![
            pt3("corner-a", 0.0, 100.0, 50.0),
            pt3("balanced", 15.0, 15.0, 10.0),
            pt3("corner-b", 100.0, 0.0, 50.0),
        ]);
        front.objective_keys = vec!["il", "dr", "eps"];
        assert_eq!(front.knee_index(), 1);
        // a flat third axis must not disturb the 2-D decision
        let mut front = front_of(vec![
            pt3("low-il", 0.0, 100.0, 7.0),
            pt3("knee", 20.0, 20.0, 7.0),
            pt3("low-dr", 100.0, 0.0, 7.0),
        ]);
        front.objective_keys = vec!["il", "dr", "eps"];
        assert_eq!(front.knee_index(), 1);
    }

    #[test]
    fn csv_writers_emit_headers_and_rows() {
        let mut front = front_of(vec![pt("f", 1.0, 2.0)]);
        front.initial = vec![pt("i", 3.0, 4.0)];
        front.archive = vec![pt("a", 1.0, 2.0)];
        let mut buf = Vec::new();
        front.write_front_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("phase,name,il,dr,score\n"));
        assert!(text.contains("initial,i,3.0000,4.0000,"));
        assert!(text.contains("final,f,1.0000,2.0000,"));
        assert!(text.contains("archive,a,"));

        let mut buf = Vec::new();
        front.write_hypervolume_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "generation,hypervolume\n0,0.0000\n1,1.0000\n");
    }

    #[test]
    fn extended_runs_append_objective_columns() {
        let mut front = front_of(vec![pt3("f", 1.0, 2.0, 3.5)]);
        front.objective_keys = vec!["il", "dr", "eps"];
        // an archive point carrying only the pair pads its extra column
        front.archive = vec![pt("a", 1.0, 2.0)];
        let mut buf = Vec::new();
        front.write_front_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("phase,name,il,dr,score,eps\n"), "{text}");
        assert!(text.contains("final,f,1.0000,2.0000,2.0000,3.5000\n"));
        assert!(text.contains("archive,a,1.0000,2.0000,2.0000,\n"));
    }

    #[test]
    fn outcome_accessors_discriminate_modes() {
        let scored = JobOutcome::Scored;
        assert!(scored.is_scored_only());
        assert!(scored.scalar().is_none());
        assert!(scored.front().is_none());
        let pareto = JobOutcome::Pareto(front_of(vec![pt("x", 1.0, 1.0)]));
        assert!(pareto.front().is_some());
        assert!(pareto.scalar().is_none());
        assert!(pareto.into_front().is_some());
    }
}
