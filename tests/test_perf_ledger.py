"""The perf ledger (repro.obs.ledger) and the ``repro-perf`` gate
(repro.harness.perfgate).

Unit tests for the record model, the MAD statistics, and the noise-aware
regression verdict; the ``perf_smoke``-marked tests drive the real gate
end to end against a throwaway ledger — a clean rerun passes, a seeded
slowdown trips it (the acceptance criterion for the regression gate).
"""

from __future__ import annotations

import json
import statistics

import pytest

from repro.harness import perfgate
from repro.harness.experiment import Measurement
from repro.harness.perfgate import main as perfgate_main
from repro.obs.ledger import (
    CheckResult,
    RunRecord,
    append_records,
    check_regression,
    latest_baseline,
    mad,
    options_hash,
    read_ledger,
    record_from_samples,
    validate_record_dict,
)


class TestMad:
    def test_zero_for_fewer_than_two_samples(self):
        assert mad([]) == 0.0
        assert mad([1.5]) == 0.0

    def test_robust_to_one_outlier(self):
        quiet = [1.0, 1.0, 1.0, 1.0, 100.0]
        assert mad(quiet) == 0.0  # median-of-deviations ignores the spike

    def test_symmetric_spread(self):
        assert mad([1.0, 2.0, 3.0]) == 1.0


class TestRunRecord:
    def test_round_trips_through_dict(self):
        record = record_from_samples("perfgate", "sssp_delta",
                                     [0.01, 0.012, 0.011],
                                     options={"enable": True})
        data = record.to_dict()
        validate_record_dict(data)
        assert json.loads(json.dumps(data)) == data
        restored = RunRecord.from_dict(data)
        assert restored == record

    def test_validator_rejects_unknown_kind_and_missing_keys(self):
        record = record_from_samples("b", "l", [0.1])
        data = record.to_dict()
        data["kind"] = "mystery"
        with pytest.raises(ValueError):
            validate_record_dict(data)
        data = record.to_dict()
        del data["median_seconds"]
        with pytest.raises(ValueError):
            validate_record_dict(data)

    def test_options_hash_is_order_insensitive(self):
        assert options_hash({"a": 1, "b": 2}) \
            == options_hash({"b": 2, "a": 1})
        assert options_hash({"a": 1}) != options_hash({"a": 2})


class TestLedgerIo:
    def test_append_then_read_preserves_order(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        first = record_from_samples("b", "one", [0.1])
        second = record_from_samples("b", "two", [0.2])
        assert append_records([first], path) == 1
        assert append_records([second], path) == 1
        labels = [r.label for r in read_ledger(path)]
        assert labels == ["one", "two"]

    def test_missing_ledger_reads_empty(self, tmp_path):
        assert read_ledger(str(tmp_path / "absent.jsonl")) == []

    def test_unknown_schema_versions_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        record = record_from_samples("b", "l", [0.1])
        future = record.to_dict()
        future["schema_version"] = 99
        path.write_text(json.dumps(record.to_dict()) + "\n"
                        + json.dumps(future) + "\n")
        assert len(read_ledger(str(path))) == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            read_ledger(str(path))


class TestLatestBaseline:
    def _records(self):
        baseline_old = record_from_samples("perfgate", "w", [0.1],
                                           kind="baseline")
        check = record_from_samples("perfgate", "w", [0.5], kind="check")
        baseline_new = record_from_samples("perfgate", "w", [0.2],
                                           kind="baseline")
        return [baseline_old, check, baseline_new]

    def test_most_recent_matching_baseline_wins(self):
        records = self._records()
        found = latest_baseline(records, "perfgate", "w")
        assert found is records[-1]

    def test_check_records_never_become_baselines(self):
        # A failing check run must not poison the baseline history.
        records = self._records()
        found = latest_baseline(records, "perfgate", "w")
        assert found.kind == "baseline"
        assert found.median_seconds != 0.5

    def test_options_hash_filter(self):
        records = self._records()
        assert latest_baseline(records, "perfgate", "w",
                               options=options_hash({"x": 1})) is None


class TestCheckRegression:
    def _baseline(self, samples):
        return record_from_samples("perfgate", "w", samples,
                                   kind="baseline")

    def test_within_noise_passes(self):
        baseline = self._baseline([0.100, 0.102, 0.101])
        fresh = record_from_samples("perfgate", "w", [0.104, 0.105, 0.103])
        result = check_regression(baseline, fresh)
        assert not result.regressed
        assert "ok" in result.describe()

    def test_clear_slowdown_regresses(self):
        baseline = self._baseline([0.100, 0.102, 0.101])
        fresh = record_from_samples("perfgate", "w", [0.200, 0.210, 0.205])
        result = check_regression(baseline, fresh)
        assert result.regressed
        assert "REGRESSED" in result.describe()
        assert result.ratio == pytest.approx(2.03, rel=0.05)

    def test_zero_mad_baseline_keeps_relative_floor(self):
        # Quantized timers can record identical samples; the gate must
        # still tolerate min_rel_spread of noise instead of tripping on
        # any nonzero delta.
        baseline = self._baseline([0.100, 0.100, 0.100])
        fresh = record_from_samples("perfgate", "w", [0.105])
        assert not check_regression(baseline, fresh).regressed
        slower = record_from_samples("perfgate", "w", [0.125])
        assert check_regression(baseline, slower).regressed

    def test_host_mismatch_noted(self):
        baseline = self._baseline([0.1])
        fresh = record_from_samples("perfgate", "w", [0.1],
                                    host={"platform": "elsewhere"})
        result = check_regression(baseline, fresh)
        assert any("host" in note for note in result.notes)


@pytest.mark.perf_smoke
class TestPerfGateEndToEnd:
    """The acceptance criterion: ``repro-perf check`` passes on an
    unmodified rerun and detects a seeded regression, against a
    throwaway ledger (one workload keeps the guard fast)."""

    def _run(self, ledger, *argv):
        return perfgate_main(["--ledger", str(ledger), *argv])

    def test_record_then_clean_check_then_seeded_regression(
            self, tmp_path, monkeypatch):
        # The gate's logic under a fake clock: every repeat reports the
        # same fixed sample plus whatever the run asked ``time.sleep``
        # for, so ``--slowdown`` moves the samples by exactly its seconds
        # and the verdicts cannot depend on host load.  The wall-clock
        # gate runs in CI's perf-gate job and scripts/check_perf_gate.sh.
        slept = [0.0]
        monkeypatch.setattr(perfgate.time, "sleep",
                            lambda seconds: slept.__setitem__(
                                0, slept[0] + seconds))

        class NoOpDatabase:
            def execute(self, sql):
                return None

        def fake_time_fresh(label, setup, run, repeats=3, warmup=1,
                            teardown=None):
            samples = []
            for sample in [0.100, 0.102, 0.101][:repeats]:
                slept[0] = 0.0
                run(NoOpDatabase())
                samples.append(sample + slept[0])
            return Measurement(label, statistics.median(samples), repeats,
                               samples)

        monkeypatch.setattr(perfgate, "time_fresh", fake_time_fresh)
        ledger = tmp_path / "PERF_LEDGER.jsonl"
        args = ["--repeats", "3", "-w", "reach_fixpoint"]

        assert self._run(ledger, "record", *args) == 0
        assert self._run(ledger, "check", *args) == 0
        assert self._run(ledger, "check", *args, "--slowdown", "0.2") == 1

        records = read_ledger(str(ledger))
        kinds = [record.kind for record in records]
        assert kinds == ["baseline", "check", "check"]
        assert [record.verdict for record in records] \
            == [None, "ok", "regressed"]

    def test_check_without_baseline_fails_unless_bootstrapped(
            self, tmp_path):
        ledger = tmp_path / "PERF_LEDGER.jsonl"
        args = ["--repeats", "2", "-w", "reach_fixpoint"]
        assert self._run(ledger, "check", *args) == 1
        assert self._run(ledger, "check", *args,
                         "--bootstrap-missing") == 0
        (record,) = read_ledger(str(ledger))
        assert record.kind == "baseline"

    def test_list_renders_the_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "PERF_LEDGER.jsonl"
        assert self._run(ledger, "list") == 0
        assert "no records" in capsys.readouterr().out
