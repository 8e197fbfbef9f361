//! The multi-device async-(k) driver.

use abr_core::async_block::AsyncJacobiKernel;
use abr_core::{AsyncBlockSolver, ExecutorKind, SolveOptions, SolveResult};
use abr_gpu::timing::CommStrategy;
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    HaloExchange, RunSession, ShardPlan, SimOptions, TimingModel, Topology, UpdateTrace,
};
use abr_sparse::{CsrMatrix, Result, RowPartition};

/// A multi-GPU async-(k) configuration.
#[derive(Debug, Clone)]
pub struct MultiGpuSolver {
    /// The per-device async-(k) numerics.
    pub base: AsyncBlockSolver,
    /// Host + devices.
    pub topology: Topology,
    /// Which §3.4 communication scheme prices the exchanges.
    pub strategy: CommStrategy,
    /// Thread-block (subdomain) size within each device slice.
    pub thread_block_size: usize,
    /// The wall-clock cost model.
    pub timing: TimingModel,
}

/// A solve plus its modelled wall-clock cost.
#[derive(Debug, Clone)]
pub struct MultiGpuResult {
    /// The numerical outcome.
    pub solve: SolveResult,
    /// Modelled seconds per global iteration (marginal).
    pub seconds_per_iteration: f64,
    /// Modelled total seconds including setup.
    pub seconds_total: f64,
    /// The executor's trace — realised staleness histogram and skew
    /// watermark — when the solve ran on the persistent sharded path
    /// (`ExecutorKind::Threaded`); `None` on the DES path, which doesn't
    /// realise the strategies' communication semantics.
    pub trace: Option<UpdateTrace>,
    /// The halo refresh cadence the strategy ran with: global rounds per
    /// stage refresh (from the timing model's transfer/compute ratio), or
    /// `0` for DK's live remote reads.
    pub halo_epoch_rounds: usize,
}

impl MultiGpuSolver {
    /// A solver over `n_gpus` devices of the paper's testbed with the
    /// given strategy, async-(5), thread blocks of 448.
    pub fn supermicro(n_gpus: usize, strategy: CommStrategy) -> Self {
        MultiGpuSolver {
            base: AsyncBlockSolver::async_k(5),
            topology: Topology::supermicro(n_gpus),
            strategy,
            thread_block_size: 448,
            timing: TimingModel::calibrated(),
        }
    }

    /// The device-level and refined (thread-block) partitions for an
    /// `n`-row system.
    pub fn partitions(&self, n: usize) -> Result<(RowPartition, RowPartition)> {
        let devices = RowPartition::equal_count(n, self.topology.n_devices())?;
        let blocks = devices.refine(self.thread_block_size)?;
        Ok((devices, blocks))
    }

    /// The block-index shard offsets aligned to the device boundaries:
    /// entry `d` is the index of the first thread block on device `d`.
    /// `refine` never lets a block straddle a device edge, so every
    /// device slice is a contiguous block range.
    pub fn device_shard_offsets(devices: &RowPartition, blocks: &RowPartition) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(devices.len() + 1);
        offsets.push(0);
        for dev in devices.blocks() {
            offsets.push(
                if dev.end == blocks.n() { blocks.len() } else { blocks.block_of(dev.end) },
            );
        }
        offsets
    }

    /// Runs the solve and prices it.
    ///
    /// On the DES path the strategies share identical numerics and differ
    /// only in price; on the persistent threaded path
    /// ([`ExecutorKind::Threaded`]) the executor is given the *device*
    /// shard partition and a [`HaloExchange`] that realises the
    /// strategy's communication semantics — DK workers read remote
    /// components live, DC through a per-device stage refreshed
    /// straight from the master copy every epoch, AMC through a stage
    /// refreshed from a host-side stage (one extra epoch of staleness).
    /// The three schemes then produce genuinely different staleness
    /// distributions and convergence trajectories (the paper's
    /// Fig. 12–14 trade-off), reported through
    /// [`MultiGpuResult::trace`].
    pub fn solve(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        opts: &SolveOptions,
    ) -> Result<MultiGpuResult> {
        let (devices, blocks) = self.partitions(a.n_rows())?;
        // Compile the block plan once; the same kernel drives the solve
        // and feeds its nnz_local to the timing model.
        let kernel = AsyncJacobiKernel::with_sweep(
            a,
            rhs,
            &blocks,
            self.base.local_iters,
            self.base.damping,
            self.base.local_sweep,
        )?;
        let halo_epoch_rounds = self.timing.halo_epoch_rounds(
            &self.topology,
            self.strategy,
            a.n_rows(),
            a.nnz(),
            kernel.nnz_local(),
            self.base.local_iters,
        );

        let (solve, trace) = match &self.base.executor {
            // DES: one SM pool per device; communication is priced but
            // not realised, so all strategies produce identical iterates
            // (the pricing-isolation tests rely on this).
            ExecutorKind::Sim(sim) => {
                let base = AsyncBlockSolver {
                    executor: ExecutorKind::Sim(SimOptions {
                        n_workers: sim.n_workers * self.topology.n_devices(),
                        ..sim.clone()
                    }),
                    ..self.base.clone()
                };
                let solve = base.solve_with_kernel(a, rhs, x0, &kernel, opts, &AllowAll)?;
                (solve, None)
            }
            // Persistent threaded: shard the executor by *device slices*
            // (not worker count) and realise the strategy through the
            // halo exchange.
            ExecutorKind::Threaded(_) => {
                let shard_offsets = Self::device_shard_offsets(&devices, &blocks);
                let plan = ShardPlan::from_offsets(&shard_offsets);
                let device_rows: Vec<usize> = std::iter::once(0)
                    .chain(devices.blocks().iter().map(|d| d.end))
                    .collect();
                let halo = HaloExchange::for_strategy(
                    self.strategy,
                    &device_rows,
                    x0,
                    halo_epoch_rounds,
                );
                let session =
                    RunSession { shards: Some(&plan), halo: halo.as_ref(), ..RunSession::default() };
                let run = self.base.solve_session(
                    a,
                    rhs,
                    x0,
                    &kernel,
                    opts,
                    &AllowAll,
                    self.base.persistent_options(),
                    session,
                );
                (run.result, Some(run.trace))
            }
        };
        let seconds_per_iteration = self.timing.multi_gpu_async_iteration(
            &self.topology,
            self.strategy,
            a.n_rows(),
            a.nnz(),
            kernel.nnz_local(),
            self.base.local_iters,
        );
        let seconds_total =
            self.timing.gpu_setup + seconds_per_iteration * solve.iterations as f64;
        Ok(MultiGpuResult { solve, seconds_per_iteration, seconds_total, trace, halo_epoch_rounds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sparse::gen::trefethen;

    fn system() -> (CsrMatrix, Vec<f64>) {
        let a = trefethen(400).unwrap();
        let rhs = a.mul_vec(&vec![1.0; 400]).unwrap();
        (a, rhs)
    }

    #[test]
    fn all_strategies_solve_identically_priced_differently() {
        let (a, rhs) = system();
        let opts = SolveOptions::fixed_iterations(40);
        let mut times = Vec::new();
        let mut finals = Vec::new();
        for strategy in CommStrategy::ALL {
            let mut s = MultiGpuSolver::supermicro(2, strategy);
            s.thread_block_size = 64;
            let r = s.solve(&a, &rhs, &vec![0.0; 400], &opts).unwrap();
            assert!(r.solve.final_residual < 1e-4, "{strategy:?}: {}", r.solve.final_residual);
            times.push(r.seconds_per_iteration);
            finals.push(r.solve.final_residual);
        }
        // identical numerics (same partition, same seeds)
        assert_eq!(finals[0], finals[1]);
        assert_eq!(finals[1], finals[2]);
        // different prices
        assert_ne!(times[0], times[1]);
        assert!(times[2] > times[1], "DK pricier than DC: {times:?}");
    }

    #[test]
    fn threaded_executor_solves_to_tolerance_and_is_priced() {
        // The multi-device driver through the persistent-worker fabric:
        // same partitioning and pricing, real threads underneath with the
        // concurrent monitor stopping them.
        let (a, rhs) = system();
        let mut s = MultiGpuSolver::supermicro(2, CommStrategy::Amc);
        s.thread_block_size = 64;
        s.base.executor = ExecutorKind::Threaded(abr_gpu::ThreadedOptions::default());
        let opts = SolveOptions::to_tolerance(1e-8, 20_000);
        let r = s.solve(&a, &rhs, &vec![0.0; 400], &opts).unwrap();
        assert!(r.solve.converged, "residual {}", r.solve.final_residual);
        assert!(r.solve.iterations < 20_000, "monitor must stop early");
        assert!(r.seconds_total > 0.0 && r.seconds_per_iteration > 0.0);
    }

    /// The acceptance criterion of the realised-communication work: at an
    /// equal round budget, DK's live remote reads must beat AMC's
    /// twice-staged halos numerically, while the pricing keeps the paper's
    /// opposite order (AMC cheapest, DK priciest) — the Fig. 12–14
    /// trade-off.
    #[test]
    fn dk_fresher_than_amc_at_equal_rounds() {
        let (a, rhs) = system();
        // A fixed round budget makes the runs comparable; the threaded
        // fabric realises the halo semantics (and returns a trace) for a
        // fixed budget exactly as for a solve to tolerance.
        let opts = SolveOptions::fixed_iterations(60);
        let run = |strategy: CommStrategy| {
            let mut s = MultiGpuSolver::supermicro(2, strategy);
            s.thread_block_size = 64;
            s.base.executor = ExecutorKind::Threaded(abr_gpu::ThreadedOptions::default());
            s.solve(&a, &rhs, &vec![0.0; 400], &opts).unwrap()
        };
        let amc = run(CommStrategy::Amc);
        let dc = run(CommStrategy::Dc);
        let dk = run(CommStrategy::Dk);

        // Staleness order: AMC's host-staged epochs lag DC's direct
        // copies, DK reads live.
        assert!(amc.halo_epoch_rounds > 0 && dc.halo_epoch_rounds > 0);
        assert_eq!(dk.halo_epoch_rounds, 0, "DK has no stage cadence");
        let max_shift = |r: &MultiGpuResult| {
            r.trace.as_ref().unwrap().staleness.max_shift().unwrap_or(0)
        };
        assert!(
            max_shift(&amc) > max_shift(&dk),
            "AMC must realise staler reads: {} vs {}",
            max_shift(&amc),
            max_shift(&dk)
        );

        // Convergence order at an equal round budget: fresher reads win.
        assert!(
            dk.solve.final_residual < amc.solve.final_residual,
            "DK {} must beat AMC {}",
            dk.solve.final_residual,
            amc.solve.final_residual
        );

        // Pricing keeps the paper's opposite order.
        assert!(
            amc.seconds_per_iteration < dc.seconds_per_iteration
                && dc.seconds_per_iteration < dk.seconds_per_iteration,
            "pricing order AMC < DC < DK: {} / {} / {}",
            amc.seconds_per_iteration,
            dc.seconds_per_iteration,
            dk.seconds_per_iteration
        );

        // And the persistent path measures real skew, within the lag gate.
        let lag = abr_gpu::PersistentOptions::default().max_round_lag;
        for r in [&amc, &dc, &dk] {
            let skew = r.trace.as_ref().unwrap().max_skew;
            assert!(skew > 0, "a concurrent run cannot report zero skew");
            assert!(skew <= lag + 1, "skew {skew} exceeds lag bound {}", lag + 1);
        }
    }

    #[test]
    fn shards_nest_inside_device_slices() {
        let s = MultiGpuSolver::supermicro(4, CommStrategy::Dc);
        let (devices, blocks) = s.partitions(20_000).unwrap();
        let offsets = MultiGpuSolver::device_shard_offsets(&devices, &blocks);
        assert_eq!(offsets.len(), 5);
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap(), blocks.len());
        // Every shard's block range sits inside exactly one device slice.
        for (d, w) in offsets.windows(2).enumerate() {
            let dev = devices.block(d);
            for bi in w[0]..w[1] {
                let b = blocks.block(bi);
                assert!(
                    dev.start <= b.start && b.end <= dev.end,
                    "block {bi} [{}, {}) escapes device {d} [{}, {})",
                    b.start,
                    b.end,
                    dev.start,
                    dev.end
                );
            }
        }
    }

    #[test]
    fn partitions_nest_on_device_boundaries() {
        let s = MultiGpuSolver::supermicro(4, CommStrategy::Amc);
        let (devices, blocks) = s.partitions(20000).unwrap();
        assert_eq!(devices.len(), 4);
        blocks.validate().unwrap();
        for b in blocks.blocks() {
            assert_eq!(devices.block_of(b.start), devices.block_of(b.end - 1));
        }
    }

    #[test]
    fn amc_two_gpus_nearly_halve_iteration_time() {
        let (a, rhs) = system();
        let opts = SolveOptions::fixed_iterations(10);
        let t = |g: usize| {
            let mut s = MultiGpuSolver::supermicro(g, CommStrategy::Amc);
            s.thread_block_size = 64;
            s.solve(&a, &rhs, &vec![0.0; 400], &opts).unwrap().seconds_per_iteration
        };
        // On this small system n^2 bookkeeping is tiny, so assert the
        // model on the paper's actual size instead.
        let m = TimingModel::calibrated();
        let big = |g: usize| {
            m.multi_gpu_async_iteration(
                &Topology::supermicro(g),
                CommStrategy::Amc,
                20000,
                554466,
                554466 / 2,
                5,
            )
        };
        assert!(big(2) < 0.6 * big(1), "{} -> {}", big(1), big(2));
        assert!(big(3) > big(2), "QPI penalty: {} -> {}", big(2), big(3));
        // and the end-to-end path produces *some* consistent pricing
        assert!(t(2) > 0.0 && t(1) > 0.0);
    }
}
