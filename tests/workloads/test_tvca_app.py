"""Tests for the TVCA application driver and task programs."""

import pytest

from repro.platform.soc import leon3_det, leon3_rand
from repro.platform.trace import InstrKind
from repro.programs.compiler import generate_trace
from repro.programs.layout import link
from repro.workloads.tvca.app import TvcaApplication, TvcaConfig
from repro.workloads.tvca.tasks import (
    build_actuator_task,
    build_math_helper,
    build_sensor_task,
)


@pytest.fixture(scope="module")
def small_app():
    return TvcaApplication(
        TvcaConfig(estimator_dim=8, aero_elements=64, aero_window=8, hyperperiods=1)
    )


class TestTaskPrograms:
    def test_sensor_task_trace(self):
        prog = build_sensor_task(estimator_dim=4)
        image = link(prog)
        env = {"faults": (False, False, False, False), "telemetry_slot": 0}
        trace, path = generate_trace(prog, image, env)
        assert len(trace) > 100
        assert trace.count_kind(InstrKind.FMUL) > 0
        assert "fault=F" in path.as_key()

    def test_sensor_fault_changes_path(self):
        prog = build_sensor_task(estimator_dim=4)
        image = link(prog)
        base_env = {"faults": (False,) * 4, "telemetry_slot": 0}
        fault_env = {"faults": (True, False, False, False), "telemetry_slot": 0}
        _, p1 = generate_trace(prog, image, base_env)
        _, p2 = generate_trace(prog, image, fault_env)
        assert p1.as_key() != p2.as_key()

    def test_actuator_task_trace(self):
        helper = build_math_helper()
        prog = build_actuator_task("x", helper, aero_elements=64, aero_window=8)
        image = link(prog)
        env = {
            "steps_x": 3, "iclamp_x": False, "sat_x": True,
            "div_class_x": 0.7, "sqrt_class_x": 0.4, "sqrt_class": 0.4,
            "aero_idx_x": 10,
        }
        trace, path = generate_trace(prog, image, env)
        assert trace.count_kind(InstrKind.FDIV) == 1
        assert trace.count_kind(InstrKind.FSQRT) == 1
        assert "sched=3" in path.as_key()
        assert "sat=T" in path.as_key()

    def test_actuator_axis_validation(self):
        with pytest.raises(ValueError):
            build_actuator_task("z", build_math_helper())

    def test_estimator_dim_validation(self):
        with pytest.raises(ValueError):
            build_sensor_task(estimator_dim=1)

    def test_schedule_steps_scale_trace_length(self):
        helper = build_math_helper()
        prog = build_actuator_task("y", helper, aero_elements=64, aero_window=8)
        image = link(prog)

        def trace_length(steps):
            env = {
                "steps_y": steps, "iclamp_y": False, "sat_y": False,
                "div_class_y": 1.0, "sqrt_class_y": 1.0, "sqrt_class": 1.0,
                "aero_idx_y": 0,
            }
            t, _ = generate_trace(prog, image, env)
            return len(t)

        assert trace_length(5) > trace_length(1)


class TestApplication:
    def test_run_once_reproducible(self, small_app):
        plat = leon3_rand(num_cores=1)
        a = small_app.run_once(plat, run_seed=5, input_seed=9)
        b = small_app.run_once(plat, run_seed=5, input_seed=9)
        assert a.cycles == b.cycles
        assert a.path_class == b.path_class
        assert a.full_signature == b.full_signature

    def test_input_seed_changes_inputs(self, small_app):
        plat = leon3_det(num_cores=1)
        a = small_app.run_once(plat, run_seed=5, input_seed=1)
        b = small_app.run_once(plat, run_seed=5, input_seed=2)
        assert a.cycles != b.cycles or a.path_class != b.path_class

    def test_per_task_cycles_sum(self, small_app):
        plat = leon3_rand(num_cores=1)
        result = small_app.run_once(plat, run_seed=3)
        assert sum(result.per_task_cycles.values()) == result.cycles

    def test_all_three_tasks_execute(self, small_app):
        plat = leon3_rand(num_cores=1)
        result = small_app.run_once(plat, run_seed=3)
        for name in (
            TvcaApplication.TASK_SENSOR,
            TvcaApplication.TASK_ACT_X,
            TvcaApplication.TASK_ACT_Y,
        ):
            assert result.per_task_cycles[name] > 0

    def test_deadlines_met(self, small_app):
        plat = leon3_rand(num_cores=1)
        result = small_app.run_once(plat, run_seed=8)
        assert result.deadlines_met
        assert result.max_response_cycles > 0

    def test_sensor_runs_twice_per_hyperperiod(self, small_app):
        plat = leon3_rand(num_cores=1)
        result = small_app.run_once(plat, run_seed=8)
        assert result.full_signature.count("sensor_acquisition[") == 2

    def test_path_class_format(self, small_app):
        plat = leon3_rand(num_cores=1)
        result = small_app.run_once(plat, run_seed=8)
        assert result.path_class in ("fault=F", "fault=T")
        assert result.input_profile.startswith("sx=")
        assert ";gsx=" in result.input_profile

    def test_input_profiles_vary_across_inputs(self, small_app):
        plat = leon3_rand(num_cores=1)
        profiles = {
            small_app.run_once(plat, run_seed=i, input_seed=1000 + i).input_profile
            for i in range(25)
        }
        assert len(profiles) > 1

    def test_default_config_values(self):
        cfg = TvcaConfig()
        assert cfg.actuator_period_cycles == int(0.020 * 50e6)
        assert cfg.sensor_period_cycles == cfg.actuator_period_cycles // 2


class TestJobTraceMemo:
    """Job traces are pure functions of ``(task, env)``: equal jobs of
    any runs share one read-only :class:`Trace` object."""

    SENSOR_ENV = {"faults": (False,) * 4, "telemetry_slot": 4}

    def test_equal_task_and_env_return_the_same_trace(self, small_app):
        name = TvcaApplication.TASK_SENSOR
        trace, signature = small_app._job_trace(name, dict(self.SENSOR_ENV))
        again, again_signature = small_app._job_trace(
            name, {"telemetry_slot": 4, "faults": (False,) * 4}
        )
        assert again is trace
        assert again_signature == signature
        other, _ = small_app._job_trace(
            name, {"faults": (False,) * 4, "telemetry_slot": 8}
        )
        assert other is not trace

    def test_plans_share_equal_job_traces(self, small_app):
        def content(trace):
            return (
                tuple(trace.kinds), tuple(trace.pcs), tuple(trace.addrs),
                tuple(trace.operand_classes), tuple(trace.dep_distances),
                tuple(trace.takens),
            )

        objects = {}
        for input_seed in range(12):
            plan = small_app.build_plan(input_seed)
            for trace in plan.traces:
                objects.setdefault(content(trace), set()).add(id(trace))
        assert all(len(ids) == 1 for ids in objects.values())
        # The sensor jobs repeat across runs, so sharing actually happens.
        assert len(objects) < 12 * len(plan.traces)

    def test_memo_is_bounded_lru(self, monkeypatch):
        from repro.workloads.tvca import app as app_module

        monkeypatch.setattr(app_module, "JOB_TRACE_MEMO_SIZE", 2)
        app = TvcaApplication(
            TvcaConfig(estimator_dim=4, aero_elements=64, aero_window=8)
        )
        name = TvcaApplication.TASK_SENSOR

        def job(slot):
            env = {"faults": (False,) * 4, "telemetry_slot": slot}
            return app._job_trace(name, env)[0]

        first = job(0)
        job(4)
        assert job(0) is first  # refreshes slot 0
        job(8)  # evicts slot 4, the least recently used
        assert len(app._job_traces) == 2
        assert job(0) is first
