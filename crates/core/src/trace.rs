//! Time-series traces recorded by closed-loop runs.

use eucon_math::Vector;

/// Per-period fault and health annotations (all empty/false in a
/// fault-free run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepAnnotations {
    /// Processors down (crashed) during this period.
    pub crashed: Vec<usize>,
    /// The controller reported [`eucon_control::ControlMode::Degraded`]
    /// (a supervisory wrapper's fallback law was in charge).
    pub degraded: bool,
    /// The controller returned an error this period (previous rates kept).
    pub control_error: bool,
    /// Processors whose feedback lane was partitioned from the controller
    /// this period (no report out, no command in).
    pub partitioned: Vec<usize>,
}

impl StepAnnotations {
    /// Whether anything noteworthy happened this period.
    pub fn any(&self) -> bool {
        !self.crashed.is_empty()
            || self.degraded
            || self.control_error
            || !self.partitioned.is_empty()
    }
}

/// One sampling period's record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// Simulation time at the end of the period.
    pub time: f64,
    /// True measured utilization `u(k)` per processor over the period.
    pub utilization: Vector,
    /// What the controller actually received after sensor faults and the
    /// feedback lanes — `None` whenever identical to `utilization` (the
    /// common fault-free case records no extra vector).
    pub received: Option<Vector>,
    /// Task rates in force during the *next* period (controller output).
    pub rates: Vector,
    /// Fault and health annotations for the period.
    pub annotations: StepAnnotations,
}

impl TraceStep {
    /// A fault-free step: the controller received exactly what the
    /// monitors measured.
    pub fn clean(time: f64, utilization: Vector, rates: Vector) -> Self {
        TraceStep {
            time,
            utilization,
            received: None,
            rates,
            annotations: StepAnnotations::default(),
        }
    }

    /// The utilization vector the controller acted on (`received` when
    /// the lanes or sensor faults mutated the report, else the true
    /// measurement).
    pub fn seen(&self) -> &Vector {
        self.received.as_ref().unwrap_or(&self.utilization)
    }
}

/// The full trace of a closed-loop run: one [`TraceStep`] per sampling
/// period, in order.
///
/// # Example
///
/// ```
/// use eucon_core::{ControllerSpec, LoopBuilder};
/// use eucon_sim::SimConfig;
/// use eucon_tasks::workloads;
///
/// # fn main() -> Result<(), eucon_core::CoreError> {
/// let mut cl = LoopBuilder::new(workloads::simple())
///     .sim_config(SimConfig::constant_etf(0.5))
///     .controller(ControllerSpec::Eucon(eucon_control::MpcConfig::simple()))
///     .local()?;
/// let result = cl.run(20);
/// assert_eq!(result.trace.len(), 20);
/// let u1 = result.trace.utilization_series(0);
/// assert_eq!(u1.len(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    steps: Vec<TraceStep>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace { steps: Vec::new() }
    }

    /// Appends a step.
    pub fn push(&mut self, step: TraceStep) {
        self.steps.push(step);
    }

    /// Number of recorded periods.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Utilization of one processor across all periods.
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range for any step.
    pub fn utilization_series(&self, processor: usize) -> Vec<f64> {
        self.steps
            .iter()
            .map(|s| s.utilization[processor])
            .collect()
    }

    /// Rate of one task across all periods.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range for any step.
    pub fn rate_series(&self, task: usize) -> Vec<f64> {
        self.steps.iter().map(|s| s.rates[task]).collect()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceStep;
    type IntoIter = std::slice::Iter<'a, TraceStep>;

    fn into_iter(self) -> Self::IntoIter {
        self.steps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(t: f64, u: &[f64], r: &[f64]) -> TraceStep {
        TraceStep::clean(t, Vector::from_slice(u), Vector::from_slice(r))
    }

    #[test]
    fn series_extraction() {
        let mut tr = Trace::new();
        tr.push(step(1000.0, &[0.5, 0.6], &[0.01]));
        tr.push(step(2000.0, &[0.7, 0.8], &[0.02]));
        assert_eq!(tr.len(), 2);
        assert!(!tr.is_empty());
        assert_eq!(tr.utilization_series(1), vec![0.6, 0.8]);
        assert_eq!(tr.rate_series(0), vec![0.01, 0.02]);
    }

    #[test]
    fn iteration() {
        let mut tr = Trace::new();
        tr.push(step(1000.0, &[0.5], &[0.01]));
        let times: Vec<f64> = (&tr).into_iter().map(|s| s.time).collect();
        assert_eq!(times, vec![1000.0]);
    }

    #[test]
    fn seen_prefers_the_received_vector() {
        let mut s = step(1000.0, &[0.5], &[0.01]);
        assert_eq!(s.seen()[0], 0.5, "fault-free: controller saw the truth");
        assert!(!s.annotations.any());
        s.received = Some(Vector::from_slice(&[f64::NAN]));
        s.annotations.crashed.push(0);
        assert!(s.seen()[0].is_nan(), "faulted: controller saw the report");
        assert!(s.annotations.any());
    }

    #[test]
    fn empty_trace() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.utilization_series(0), Vec::<f64>::new());
    }
}
