//! Runtime state for the multi-tenant service mode (`pnats-tenancy`).
//!
//! The policy crate ([`pnats_tenancy`]) is pure — specs, the DWRR
//! arbiter, the admission predicate. This module holds the *runtime*
//! side the simulator threads through its event loop: the arbiter's
//! state, per-tenant service counters and in-system job counts, and the
//! preemption cooldown clock. It holds no job list: the demand indices
//! (`map_heads`, `reduce_heads`) are partitioned by tenant in service
//! mode, each partition with its tenant's running-task count.
//!
//! Everything here is gated behind `SimConfig::tenancy`; a `None` config
//! never constructs a `TenancyState`, and each demand index keeps a single
//! partition.

use pnats_tenancy::{DwrrArbiter, TenancyConfig, TenantCounters};

/// Per-tenant outcome tallies surfaced in a [`crate::SimReport`].
#[derive(Clone, Debug)]
pub struct TenantRunStats {
    /// Tenant name (from its [`pnats_tenancy::TenantSpec`]).
    pub name: String,
    /// Configured weight.
    pub weight: f64,
    /// Admission / rejection / preemption tallies.
    pub counters: TenantCounters,
}

/// Mutable tenancy runtime threaded through the simulation.
pub(crate) struct TenancyState {
    /// The policy configuration (tenants, tags, switches).
    pub cfg: TenancyConfig,
    /// Single tenant, all policies off: the simulator must take exactly
    /// the classic code paths (byte-identical traces).
    pub passthrough: bool,
    /// Slot-granularity weighted arbiter over tenants for map slots.
    pub arbiter: DwrrArbiter,
    /// Per-tenant service tallies.
    pub counters: Vec<TenantCounters>,
    /// Jobs currently admitted and not yet finished, per tenant.
    pub in_system: Vec<u32>,
    /// Last preemption time (cooldown anchor); `-inf` before the first.
    pub last_preempt_t: f64,
}

impl TenancyState {
    pub fn new(cfg: TenancyConfig, n_jobs: usize) -> Self {
        assert!(
            cfg.job_tenant.iter().all(|&t| (t as usize) < cfg.tenants.len()),
            "job tenant tag out of range"
        );
        assert!(
            cfg.job_tenant.len() >= n_jobs,
            "tenancy config tags {} jobs, batch has {}",
            cfg.job_tenant.len(),
            n_jobs
        );
        let n = cfg.tenants.len();
        let arbiter = DwrrArbiter::new(&cfg.tenants.weights());
        let passthrough = cfg.is_passthrough();
        Self {
            cfg,
            passthrough,
            arbiter,
            counters: vec![TenantCounters::default(); n],
            in_system: vec![0; n],
            last_preempt_t: f64::NEG_INFINITY,
        }
    }

    /// Book a job admission for tenant `t`.
    pub fn admit_job(&mut self, t: usize) {
        self.counters[t].admitted += 1;
        self.in_system[t] += 1;
        let peak = &mut self.counters[t].peak_in_system;
        *peak = (*peak).max(self.in_system[t] as u64);
    }

    /// Book a job leaving the system (completed or failed) for its tenant.
    pub fn job_left(&mut self, ji: usize) {
        let t = self.cfg.tenant_of(ji);
        debug_assert!(self.in_system[t] > 0, "in_system underflow for tenant {t}");
        self.in_system[t] = self.in_system[t].saturating_sub(1);
    }

    /// Per-tenant stats for the report.
    pub fn run_stats(&self) -> Vec<TenantRunStats> {
        self.cfg
            .tenants
            .iter()
            .zip(&self.counters)
            .map(|(spec, c)| TenantRunStats {
                name: spec.name.clone(),
                weight: spec.weight,
                counters: c.clone(),
            })
            .collect()
    }
}
