//! Stage timestamps of traced jobs, and the per-layer spans taken from
//! them.

use std::time::Duration;

use cdp::pipeline::JobEvent;

use crate::report::PerLayer;
use crate::stats::median;

/// The pipeline stages a traced job timestamps.
#[derive(Clone, Copy, PartialEq)]
pub enum Stage {
    Source,
    Evaluator,
    Population,
    /// A generation (scalar) or front (NSGA-II) event.
    Progress,
    Finished,
}

impl Stage {
    /// The stage an event marks, if any.
    pub fn of(event: &JobEvent) -> Option<Stage> {
        match event {
            JobEvent::SourceReady { .. } => Some(Stage::Source),
            JobEvent::EvaluatorReady { .. } => Some(Stage::Evaluator),
            JobEvent::PopulationReady { .. } => Some(Stage::Population),
            JobEvent::Generation(_) | JobEvent::FrontAdvanced { .. } => Some(Stage::Progress),
            JobEvent::EvolutionFinished { .. } => Some(Stage::Finished),
            _ => None,
        }
    }
}

/// When each stage was reached, measured from submit.
#[derive(Default)]
pub struct Timeline(Vec<(Stage, Duration)>);

impl Timeline {
    pub fn push(&mut self, stage: Stage, at: Duration) {
        self.0.push((stage, at));
    }

    fn at(&self, stage: Stage) -> Option<Duration> {
        self.0.iter().find(|(s, _)| *s == stage).map(|&(_, t)| t)
    }

    /// Seconds from the first `from` event (submit when `None`) to the
    /// first `to` event.
    fn span(&self, from: Option<Stage>, to: Stage) -> Option<f64> {
        let start = match from {
            Some(stage) => self.at(stage)?,
            None => Duration::ZERO,
        };
        Some(self.at(to)?.checked_sub(start)?.as_secs_f64())
    }

    /// Seconds between consecutive progress events.
    fn progress_gaps(&self) -> impl Iterator<Item = f64> + '_ {
        let ticks: Vec<Duration> = self
            .0
            .iter()
            .filter(|(s, _)| *s == Stage::Progress)
            .map(|&(_, t)| t)
            .collect();
        (1..ticks.len()).map(move |i| (ticks[i] - ticks[i - 1]).as_secs_f64())
    }
}

impl PerLayer {
    /// The stage spans and the generation gap, each a median over the
    /// traced jobs' timelines; every other figure 0.
    pub fn from_timelines(timelines: &[&Timeline]) -> PerLayer {
        let span = |from: Option<Stage>, to: Stage| -> f64 {
            median(
                &timelines
                    .iter()
                    .filter_map(|t| t.span(from, to))
                    .collect::<Vec<_>>(),
            )
        };
        let gaps: Vec<f64> = timelines.iter().flat_map(|t| t.progress_gaps()).collect();
        PerLayer {
            pipeline_source_s: span(None, Stage::Source),
            pipeline_prepare_s: span(Some(Stage::Source), Stage::Evaluator),
            pipeline_init_assess_s: span(Some(Stage::Population), Stage::Progress),
            pipeline_evolve_s: span(Some(Stage::Progress), Stage::Finished),
            core_generation_s: median(&gaps),
            ..PerLayer::default()
        }
    }
}
