//! Baseline controllers: the paper's OPEN and a decoupled PID for
//! ablation.

use eucon_math::{Matrix, Vector};
use eucon_qp::PreparedLsq;
use eucon_tasks::TaskSet;

use crate::{ControlError, RateController};

/// The OPEN baseline (paper §7.1): open-loop rate assignment from
/// estimated execution times.
///
/// A designer solves `B = F·r'` once at design time (here: least squares
/// under the rate bounds, exact whenever a consistent assignment exists)
/// and never adapts afterwards.  OPEN achieves the set points exactly when
/// the estimates are exact (`etf = 1`), underutilizes when execution times
/// are overestimated and overloads when they are underestimated — the
/// behaviour Figures 5 and 6 demonstrate.
///
/// # Example
///
/// ```
/// use eucon_control::{OpenLoop, RateController};
/// use eucon_tasks::{rms_set_points, workloads};
///
/// # fn main() -> Result<(), eucon_control::ControlError> {
/// let medium = workloads::medium();
/// let b = rms_set_points(&medium);
/// let open = OpenLoop::design(&medium, &b)?;
/// // The designed rates reproduce the set points on the model.
/// let u = medium.estimated_utilization(&open.rates());
/// assert!((u[0] - b[0]).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpenLoop {
    rates: Vector,
}

impl OpenLoop {
    /// Designs the fixed rates `r'` with `min ‖F·r' − B‖` subject to the
    /// task rate bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::Optimization`] if the underlying solver
    /// fails (the rate box itself is always feasible).
    pub fn design(set: &TaskSet, set_points: &Vector) -> Result<Self, ControlError> {
        let f = set.allocation_matrix();
        let (rmin, rmax) = set.rate_bounds();
        // The rate box as rows: `r ≤ rmax`, then `−r ≤ −rmin`.
        let m = rmin.len();
        let g = Matrix::from_fn(2 * m, m, |i, j| match i {
            _ if i == j => 1.0,
            _ if i == m + j => -1.0,
            _ => 0.0,
        });
        let h = rmax.concat(&-&rmin);
        let sol = PreparedLsq::new(f, g, 1e-9)
            .and_then(|lsq| lsq.solve_with(set_points, &h, &[]))
            .map_err(ControlError::Optimization)?;
        Ok(OpenLoop { rates: sol.x })
    }

    /// Creates an OPEN baseline with explicitly chosen rates.
    pub fn with_rates(rates: Vector) -> Self {
        OpenLoop { rates }
    }

    /// The expected utilization under OPEN for a given execution-time
    /// factor: `etf · F·r'` (the straight line plotted in Figure 5).
    pub fn expected_utilization(&self, set: &TaskSet, etf: f64) -> Vector {
        set.estimated_utilization(&self.rates).scale(etf)
    }
}

impl RateController for OpenLoop {
    fn update(&mut self, _u: &Vector) -> Result<(), ControlError> {
        // Open loop: feedback is ignored, the design rates stay in force.
        Ok(())
    }

    fn rates(&self) -> &Vector {
        &self.rates
    }

    fn name(&self) -> &'static str {
        "OPEN"
    }
}

/// A decoupled per-processor PI controller, used as an ablation baseline.
///
/// Earlier feedback-control scheduling work (FCS, DFCS) regulated each
/// processor independently with linear PID-type control.  This baseline
/// mimics that structure: each processor computes a utilization error and
/// a multiplicative rate correction for the tasks it hosts, *ignoring the
/// coupling* through multi-processor tasks.  A task spanning several
/// processors receives the most conservative (smallest) correction among
/// them.  The EUCON-vs-PID benchmark quantifies what the MIMO formulation
/// buys.
#[derive(Debug, Clone)]
pub struct IndependentPid {
    set_points: Vector,
    rates: Vector,
    rmin: Vector,
    rmax: Vector,
    hosts: Vec<Vec<usize>>,
    kp: f64,
    ki: f64,
    integral: Vector,
    /// Per-processor correction factors, rewritten in place every period
    /// (scratch — kept across calls so `update` never allocates).
    factor: Vector,
}

impl IndependentPid {
    /// Creates the baseline with gains `kp` (proportional) and `ki`
    /// (integral) on the relative utilization error.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::DimensionMismatch`] when `set_points` does
    /// not have one entry per processor.
    pub fn new(set: &TaskSet, set_points: Vector, kp: f64, ki: f64) -> Result<Self, ControlError> {
        if set_points.len() != set.num_processors() {
            return Err(ControlError::DimensionMismatch(format!(
                "{} set points for {} processors",
                set_points.len(),
                set.num_processors()
            )));
        }
        let (rmin, rmax) = set.rate_bounds();
        let hosts = set
            .tasks()
            .iter()
            .map(|t| {
                let mut ps: Vec<usize> = t.subtasks().iter().map(|s| s.processor.0).collect();
                ps.sort_unstable();
                ps.dedup();
                ps
            })
            .collect();
        Ok(IndependentPid {
            integral: Vector::zeros(set_points.len()),
            factor: Vector::zeros(set_points.len()),
            set_points,
            rates: set.initial_rates(),
            rmin,
            rmax,
            hosts,
            kp,
            ki,
        })
    }
}

impl RateController for IndependentPid {
    fn update(&mut self, u: &Vector) -> Result<(), ControlError> {
        if u.len() != self.set_points.len() {
            return Err(ControlError::DimensionMismatch(format!(
                "{} utilization samples for {} processors",
                u.len(),
                self.set_points.len()
            )));
        }
        // Per-processor multiplicative correction from the relative error.
        for i in 0..u.len() {
            let err = self.set_points[i] - u[i];
            self.integral[i] += err;
            self.factor[i] = 1.0 + self.kp * err + self.ki * self.integral[i];
            self.factor[i] = self.factor[i].clamp(0.5, 2.0); // rate-limit each step
        }
        for (t, hosts) in self.hosts.iter().enumerate() {
            // Conservative: a shared task follows its most loaded host.
            let f = hosts
                .iter()
                .map(|&p| self.factor[p])
                .fold(f64::INFINITY, f64::min);
            self.rates[t] = (self.rates[t] * f).clamp(self.rmin[t], self.rmax[t]);
        }
        Ok(())
    }

    fn rates(&self) -> &Vector {
        &self.rates
    }

    fn name(&self) -> &'static str {
        "PID"
    }

    fn reset(&mut self, rates: &Vector) {
        assert_eq!(rates.len(), self.rates.len(), "one rate per task required");
        for t in 0..self.rates.len() {
            self.rates[t] = rates[t].clamp(self.rmin[t], self.rmax[t]);
        }
        self.integral = Vector::zeros(self.integral.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eucon_tasks::{rms_set_points, workloads};

    #[test]
    fn open_design_is_exact_on_medium() {
        // MEDIUM is constructed so B = F·r_nom has an exact solution.
        let set = workloads::medium();
        let b = rms_set_points(&set);
        let open = OpenLoop::design(&set, &b).unwrap();
        let u = set.estimated_utilization(open.rates());
        assert!(u.approx_eq(&b, 1e-6));
    }

    #[test]
    fn open_ignores_feedback() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut open = OpenLoop::design(&set, &b).unwrap();
        open.update(&Vector::from_slice(&[0.1, 0.1])).unwrap();
        let r1 = open.rates().clone();
        open.update(&Vector::from_slice(&[1.0, 1.0])).unwrap();
        assert!(r1.approx_eq(open.rates(), 0.0));
    }

    #[test]
    fn open_expected_utilization_scales_linearly() {
        let set = workloads::medium();
        let b = rms_set_points(&set);
        let open = OpenLoop::design(&set, &b).unwrap();
        let u_01 = open.expected_utilization(&set, 0.1);
        // Paper: at etf = 0.1 OPEN yields ≈ 0.073 on P1.
        assert!((u_01[0] - 0.0729).abs() < 1e-3, "got {}", u_01[0]);
        let u_2 = open.expected_utilization(&set, 2.0);
        assert!(u_2[0] > 1.0, "overload when execution times double");
    }

    #[test]
    fn open_with_rates_passthrough() {
        let open = OpenLoop::with_rates(Vector::from_slice(&[0.01, 0.02]));
        assert_eq!(open.rates().as_slice(), &[0.01, 0.02]);
        assert_eq!(open.name(), "OPEN");
    }

    #[test]
    fn pid_raises_rates_when_underutilized() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut pid = IndependentPid::new(&set, b, 0.5, 0.1).unwrap();
        let r0 = pid.rates().clone();
        pid.update(&Vector::from_slice(&[0.2, 0.2])).unwrap();
        assert!(pid.rates().sum() > r0.sum());
    }

    #[test]
    fn pid_lowers_rates_when_overloaded() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut pid = IndependentPid::new(&set, b, 0.5, 0.1).unwrap();
        let r0 = pid.rates().clone();
        pid.update(&Vector::from_slice(&[1.0, 1.0])).unwrap();
        assert!(pid.rates().sum() < r0.sum());
    }

    #[test]
    fn pid_respects_rate_bounds() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut pid = IndependentPid::new(&set, b, 2.0, 0.5).unwrap();
        for _ in 0..100 {
            pid.update(&Vector::from_slice(&[0.0, 0.0])).unwrap();
            for (t, task) in set.tasks().iter().enumerate() {
                assert!(pid.rates()[t] <= task.rate_max() + 1e-12);
            }
        }
        let r = pid.rates().clone();
        for (t, task) in set.tasks().iter().enumerate() {
            assert!((r[t] - task.rate_max()).abs() < 1e-9, "saturates at Rmax");
        }
    }

    #[test]
    fn pid_dimension_checked() {
        let set = workloads::simple();
        assert!(matches!(
            IndependentPid::new(&set, Vector::zeros(5), 0.5, 0.1),
            Err(ControlError::DimensionMismatch(_))
        ));
        let b = rms_set_points(&set);
        let mut pid = IndependentPid::new(&set, b, 0.5, 0.1).unwrap();
        assert!(matches!(
            pid.update(&Vector::zeros(7)),
            Err(ControlError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn shared_task_follows_most_conservative_processor() {
        let set = workloads::simple();
        let b = rms_set_points(&set);
        let mut pid = IndependentPid::new(&set, b, 0.5, 0.0).unwrap();
        let r0 = pid.rates().clone();
        // P1 overloaded, P2 idle: shared task T2 must not be raised.
        pid.update(&Vector::from_slice(&[1.0, 0.0])).unwrap();
        assert!(pid.rates()[1] <= r0[1] + 1e-12, "T2 follows overloaded P1");
        assert!(pid.rates()[2] > r0[2], "T3 (P2-only) is raised");
    }
}
