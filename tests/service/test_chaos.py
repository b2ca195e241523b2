"""Chaos harness smoke tests.

The full campaign battery runs in CI's ``chaos`` job
(``python -m repro chaos``); here we pin down the harness *contract*:
plans are deterministic functions of their seed, and a single campaign
runs clean end-to-end.
"""

from __future__ import annotations

from repro.service.chaos import ChaosPlan, run_campaign, run_campaigns, summarize


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        a = ChaosPlan.generate(3, n_jobs=6)
        b = ChaosPlan.generate(3, n_jobs=6)
        assert [j.__dict__ for j in a.jobs] == [j.__dict__ for j in b.jobs]
        assert (a.evict_after_drain, a.close_race_submissions) == (
            b.evict_after_drain,
            b.close_race_submissions,
        )

    def test_different_seeds_differ(self):
        plans = [ChaosPlan.generate(s, n_jobs=6) for s in range(8)]
        kinds = {tuple(j.kind for j in p.jobs) for p in plans}
        assert len(kinds) > 1

    def test_job_zero_is_always_clean(self):
        for seed in range(10):
            plan = ChaosPlan.generate(seed, n_jobs=4)
            assert plan.jobs[0].kind == "none"
            assert plan.jobs[0].fault is None

    def test_faulted_jobs_get_unique_cache_keys(self):
        # A faulted job whose params match an already-DONE job would be
        # served from the dedup cache and never run its fault.
        for seed in range(10):
            plan = ChaosPlan.generate(seed, n_jobs=8)
            for job in plan.jobs:
                if job.kind in ("kill", "hang", "ckpt_fault", "result_out"):
                    assert job.params["seed"] >= 100

    def test_reuse_takes_a_failed_id_when_the_plan_has_one(self):
        for seed in range(20):
            plan = ChaosPlan.generate(seed, n_jobs=6)
            failed = [j for j in plan.jobs if j.kind == "result_out"]
            target = next(j for j in plan.jobs if j.job_id == plan.reuse.job_id)
            assert target in failed if failed else target is plan.jobs[0]
            assert plan.reuse.kind == ("reuse_failed" if failed else "reuse_done")
            seeds = {j.params["seed"] for j in plan.jobs}
            assert plan.reuse.params == {**target.params, "seed": plan.reuse.params["seed"]}
            assert plan.reuse.params["seed"] not in seeds
            assert plan.reuse.via_http and plan.reuse.fault is None


class TestCampaignSmoke:
    def test_process_campaign_runs_clean(self):
        plan = ChaosPlan.generate(0, n_jobs=4)
        assert plan.reuse.kind == "reuse_failed"
        result = run_campaign(plan, drain_timeout_s=120)
        assert result.ok, result.violations
        assert result.job_states and result.duration_s > 0
        assert result.kind_counts["reuse_failed"] == 1
        assert result.counters["service.checkpoints_discarded"] == 1

    def test_run_campaigns_alternates_models_and_summarizes(self):
        results = run_campaigns(2, seed=5, n_jobs=3)
        summary = summarize(results)
        assert summary["campaigns"] == 2
        assert summary["ok"], summary["violations"]
        assert summary["total_jobs"] == sum(len(r.job_states) for r in results)
