"""The command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateInspect:
    def test_generate_uniform(self, tmp_path, capsys):
        out_file = tmp_path / "u.txt"
        code, out, _err = run(capsys, "generate", "uniform", "-n", "100",
                              "-d", "0.3", "--seed", "1",
                              "-o", str(out_file))
        assert code == 0
        assert out_file.exists()
        assert "N=100" in out

    @pytest.mark.parametrize("kind", ["clustered", "zipf", "diagonal",
                                      "tiger"])
    def test_generate_all_kinds(self, tmp_path, capsys, kind):
        out_file = tmp_path / f"{kind}.txt"
        code, _out, _err = run(capsys, "generate", kind, "-n", "60",
                               "--seed", "2", "-o", str(out_file))
        assert code == 0

    def test_tiger_rejects_1d(self, tmp_path, capsys):
        code, _out, err = run(capsys, "generate", "tiger", "-n", "10",
                              "--ndim", "1",
                              "-o", str(tmp_path / "x.txt"))
        assert code == 2
        assert "two-dimensional" in err

    def test_inspect(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        run(capsys, "generate", "uniform", "-n", "150", "-d", "0.4",
            "--seed", "3", "-o", str(data))
        code, out, _err = run(capsys, "inspect", str(data))
        assert code == 0
        assert "cardinality: 150" in out
        assert "density:     0.4" in out

    def test_inspect_missing_file(self, capsys):
        code, _out, err = run(capsys, "inspect", "/nonexistent/d.txt")
        assert code == 2
        assert "error:" in err


class TestBuildJoinEstimate:
    @pytest.fixture
    def two_trees(self, tmp_path, capsys):
        paths = []
        for seed in (4, 5):
            data = tmp_path / f"d{seed}.txt"
            tree = tmp_path / f"t{seed}.json"
            run(capsys, "generate", "uniform", "-n", "300", "-d", "0.5",
                "--seed", str(seed), "-o", str(data))
            run(capsys, "build", str(data), "-M", "16",
                "-o", str(tree))
            paths.append(tree)
        return paths

    def test_build_reports_structure(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        run(capsys, "generate", "uniform", "-n", "200", "--seed", "6",
            "-o", str(data))
        code, out, _err = run(capsys, "build", str(data), "-M", "16",
                              "--variant", "str",
                              "-o", str(tmp_path / "t.json"))
        assert code == 0
        assert "built str tree" in out and "height" in out

    def test_join(self, two_trees, capsys):
        code, out, _err = run(capsys, "join", str(two_trees[0]),
                              str(two_trees[1]))
        assert code == 0
        assert "result pairs:" in out
        assert "node accesses NA:" in out
        assert "analytical:" in out
        # No engine flags: the fast engine runs.
        assert "engine=level-batch" in out

    def test_join_buffer_specs(self, two_trees, capsys):
        for spec in ("none", "path", "lru:16"):
            code, _out, _err = run(capsys, "join", str(two_trees[0]),
                                   str(two_trees[1]), "--buffer", spec)
            assert code == 0

    def test_join_traversal_level_batch_matches_stack(self, two_trees,
                                                      capsys):
        def counters(text):
            return [line for line in text.splitlines()
                    if line.startswith(("result pairs:",
                                        "node accesses NA:",
                                        "disk accesses DA:"))]
        code, out, _err = run(capsys, "join", "--traversal", "stack",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 0
        assert "engine=stack\n" in out
        code, batch_out, _err = run(capsys, "join", str(two_trees[0]),
                                    str(two_trees[1]))
        assert code == 0
        assert counters(batch_out) == counters(out)

    def test_join_bad_traversal(self, two_trees, capsys):
        with pytest.raises(SystemExit):     # argparse choices
            run(capsys, "join", str(two_trees[0]), str(two_trees[1]),
                "--traversal", "magic")
        with pytest.raises(SystemExit):     # transport is not a flag
            run(capsys, "join", str(two_trees[0]), str(two_trees[1]),
                "--workers", "2", "--no-shared-memory")

    def test_join_pbsm_strategy_matches_sync(self, two_trees, capsys):
        def counters(text):
            return [line for line in text.splitlines()
                    if line.startswith("result pairs")]
        code, out, _err = run(capsys, "join", str(two_trees[0]),
                              str(two_trees[1]))
        assert code == 0
        code, pbsm_out, _err = run(capsys, "join", "--strategy", "pbsm",
                                   str(two_trees[0]), str(two_trees[1]))
        assert code == 0
        assert counters(pbsm_out) == counters(out)

    def test_join_pbsm_rejects_checkpointing(self, two_trees, tmp_path,
                                             capsys):
        code, _out, err = run(capsys, "join", "--strategy", "pbsm",
                              "--checkpoint",
                              str(tmp_path / "cp.json"),
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 2
        assert "pbsm" in err and "resumable" in err

    def test_join_pbsm_refuses_a_worker_pool(self, two_trees, capsys):
        # The config door says it, so the CLI says what the library
        # and the daemon say: PBSM runs in the calling thread.
        code, out, err = run(capsys, "join", "--strategy", "pbsm",
                             "--workers", "2", str(two_trees[0]),
                             str(two_trees[1]))
        assert code == 2
        assert "workers must be 1" in err
        assert "result pairs" not in out

    def test_join_bad_buffer(self, two_trees, capsys):
        code, _out, err = run(capsys, "join", str(two_trees[0]),
                              str(two_trees[1]), "--buffer", "magic")
        assert code == 2
        assert "buffer" in err

    def test_join_trace_metrics_report(self, two_trees, tmp_path,
                                       capsys):
        """Governed traced join -> JSONL trace -> `repro report`."""
        trace = tmp_path / "trace.jsonl"
        code, out, _err = run(capsys, "join", "--max-na", "100000",
                              "--trace", str(trace), "--metrics",
                              "--sample-pairs", "10",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 0
        assert "metric join.na:" in out
        assert "estimator accuracy:" in out
        assert f"trace written to {trace}" in out

        import json
        records = [json.loads(line) for line in
                   trace.read_text().splitlines()]
        events = {r["event"] for r in records}
        assert {"join_start", "node_pair", "join_finish", "accuracy",
                "metrics"} <= events

        # The traced counters equal the printed ones exactly.
        [finish] = [r for r in records if r["event"] == "join_finish"]
        assert f"node accesses NA: {finish['na']}" in out
        assert f"disk accesses DA: {finish['da']}" in out
        [acc] = [r for r in records if r["event"] == "accuracy"]
        assert acc["na_observed"] == finish["na"]
        assert acc["da_observed"] == finish["da"]

        code, out, _err = run(capsys, "report", str(trace))
        assert code == 0
        assert "estimator accuracy" in out
        assert "join.na" in out

    def test_join_traced_counters_match_untraced(self, two_trees,
                                                 tmp_path, capsys):
        _code, plain, _err = run(capsys, "join", str(two_trees[0]),
                                 str(two_trees[1]))
        trace = tmp_path / "t.jsonl"
        _code, traced, _err = run(capsys, "join", "--trace", str(trace),
                                  str(two_trees[0]), str(two_trees[1]))
        pick = lambda out: [line for line in out.splitlines()
                            if line.startswith(("result pairs",
                                                "node accesses",
                                                "disk accesses"))]
        assert pick(traced) == pick(plain)

    def test_join_workers_trace_metrics(self, two_trees, tmp_path,
                                        capsys):
        trace = tmp_path / "par.jsonl"
        code, out, _err = run(capsys, "join", "--workers", "2",
                              "--trace", str(trace), "--metrics",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 0
        assert "metric worker.na:" in out
        import json
        records = [json.loads(line) for line in
                   trace.read_text().splitlines()]
        finishes = [r for r in records if r["event"] == "worker_finish"]
        assert [r["worker"] for r in finishes] == [0, 1]

    def test_estimate(self, capsys):
        code, out, _err = run(capsys, "estimate", "--n1", "20000",
                              "--d1", "0.5", "--n2", "60000",
                              "--d2", "0.5", "-M", "50")
        assert code == 0
        assert "NA_total" in out
        assert "role advice" in out

    def test_estimate_missing_args(self, capsys):
        code, _out, err = run(capsys, "estimate", "--n1", "20000",
                              "--d1", "0.5")
        assert code == 2
        assert "--n2 --d2" in err and "--batch" in err

    def test_estimate_batch(self, tmp_path, capsys):
        import json
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"n1": 20000, "d1": 0.5, "n2": 60000, "d2": 0.5,
             "max_entries": 50, "window": [0.1, 0.1]},
            {"n1": 1000, "d1": 0.2, "n2": 1000, "d2": 0.2,
             "distance": 0.02, "label": "tiny"},
        ]))
        out_file = tmp_path / "est.json"
        code, out, _err = run(capsys, "estimate", "--batch", str(grid),
                              "-o", str(out_file))
        assert code == 0
        assert "wrote 2 estimates" in out
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"mixed_height_mode", "results"}
        assert len(payload["results"]) == 2
        first, second = payload["results"]
        assert first["na"] > 0 and "range_na" in first
        assert second["label"] == "tiny" and "range_na" not in second

    def test_estimate_batch_to_stdout(self, tmp_path, capsys):
        import json
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            [{"n1": 500, "d1": 0.5, "n2": 500, "d2": 0.5}]))
        code, out, _err = run(capsys, "estimate", "--batch", str(grid))
        assert code == 0
        assert json.loads(out)["results"][0]["da"] > 0

    def test_estimate_batch_bad_records(self, tmp_path, capsys):
        import json
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n1": 500, "d1": 0.5}]))
        code, _out, err = run(capsys, "estimate", "--batch", str(grid))
        assert code == 2
        assert "missing required field" in err
        grid.write_text(json.dumps({"n1": 500}))
        code, _out, err = run(capsys, "estimate", "--batch", str(grid))
        assert code == 2
        assert "JSON list" in err
        # json reads a NaN literal as a float: refused, named, exit 2.
        grid.write_text('[{"n1": 500, "d1": 0.5, "n2": 500, "d2": 0.5,'
                        ' "max_entries": NaN}]')
        code, _out, err = run(capsys, "estimate", "--batch", str(grid))
        assert code == 2
        assert "request 0: max_entries must be an integer" in err

    def test_figures(self, capsys):
        code, out, _err = run(capsys, "figures")
        assert code == 0
        for label in ("Figure 6a", "Figure 6b", "Figure 7a",
                      "Figure 7b"):
            assert label in out


class TestQueryCommand:
    @pytest.fixture
    def saved_tree(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        tree = tmp_path / "t.json"
        run(capsys, "generate", "uniform", "-n", "200", "-d", "0.5",
            "--seed", "11", "-o", str(data))
        run(capsys, "build", str(data), "-M", "16", "-o", str(tree))
        return tree

    def test_range_query(self, saved_tree, capsys):
        code, out, _err = run(capsys, "query", str(saved_tree),
                              "--window", "0.2", "0.2", "0.5", "0.5")
        assert code == 0
        assert "range query" in out
        assert "node accesses:" in out

    def test_knn_query(self, saved_tree, capsys):
        code, out, _err = run(capsys, "query", str(saved_tree),
                              "--knn", "0.5", "0.5", "-k", "5")
        assert code == 0
        assert out.count("oid ") == 5

    def test_window_arity_checked(self, saved_tree, capsys):
        code, _out, err = run(capsys, "query", str(saved_tree),
                              "--window", "0.2", "0.2", "0.5")
        assert code == 2
        assert "coordinates" in err

    def test_knn_arity_checked(self, saved_tree, capsys):
        code, _out, err = run(capsys, "query", str(saved_tree),
                              "--knn", "0.5")
        assert code == 2
        assert "coordinates" in err


class TestExperimentCommand:
    def test_analytic_experiment(self, capsys):
        code, out, _err = run(capsys, "experiment", "fig6a")
        assert code == 0
        assert "anal(NA)" in out

    def test_unknown_id(self, capsys):
        code, _out, err = run(capsys, "experiment", "fig42")
        assert code == 2
        assert "unknown experiment" in err


class TestReliabilityCli:
    """Structured exit codes, degraded loads, verify, chaos joins."""

    @pytest.fixture
    def saved_tree(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        tree = tmp_path / "t.json"
        run(capsys, "generate", "uniform", "-n", "250", "-d", "0.5",
            "--seed", "13", "-o", str(data))
        run(capsys, "build", str(data), "-M", "8", "-o", str(tree))
        return tree

    @pytest.fixture
    def two_trees(self, tmp_path, capsys):
        paths = []
        for seed in (14, 15):
            data = tmp_path / f"d{seed}.txt"
            tree = tmp_path / f"t{seed}.json"
            run(capsys, "generate", "uniform", "-n", "250", "-d", "0.5",
                "--seed", str(seed), "-o", str(data))
            run(capsys, "build", str(data), "-M", "8", "-o", str(tree))
            paths.append(tree)
        return paths

    @staticmethod
    def corrupt_leaf(path):
        import json
        doc = json.loads(path.read_text())
        victim = min(int(p) for p, n in doc["nodes"].items()
                     if n["level"] == 1 and int(p) != doc["root_id"])
        payload = doc["nodes"][str(victim)]
        payload["entries"][0][0][0] += 0.125   # CRC left stale
        path.write_text(json.dumps(doc))

    def test_truncated_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 2, "ndim"')
        code, _out, err = run(capsys, "query", str(bad),
                              "--window", "0", "0", "1", "1")
        assert code == 2
        assert "invalid JSON" in err

    def test_missing_field_is_usage_error(self, saved_tree, capsys):
        import json
        doc = json.loads(saved_tree.read_text())
        del doc["root_id"]
        saved_tree.write_text(json.dumps(doc))
        code, _out, err = run(capsys, "query", str(saved_tree),
                              "--window", "0", "0", "1", "1")
        assert code == 2
        assert "root_id" in err

    def test_corruption_is_exit_3(self, two_trees, capsys):
        self.corrupt_leaf(two_trees[0])
        code, _out, err = run(capsys, "join", str(two_trees[0]),
                              str(two_trees[1]))
        assert code == 3
        assert "corrupt" in err

    def test_lenient_join_degrades_with_warning(self, two_trees, capsys):
        self.corrupt_leaf(two_trees[0])
        code, out, err = run(capsys, "join", "--lenient",
                             str(two_trees[0]), str(two_trees[1]))
        assert code == 0
        assert "degraded load" in err
        assert "result pairs:" in out

    def test_verify_clean(self, saved_tree, capsys):
        code, out, _err = run(capsys, "verify", str(saved_tree))
        assert code == 0
        assert "clean" in out

    def test_verify_corrupt(self, saved_tree, capsys):
        self.corrupt_leaf(saved_tree)
        code, out, _err = run(capsys, "verify", str(saved_tree))
        assert code == 3
        assert "CORRUPT" in out
        assert "corrupt pages:" in out

    def test_chaos_join_succeeds_and_reports_retries(self, two_trees,
                                                     capsys):
        code, out, _err = run(capsys, "join",
                              "--inject-transient", "0.05",
                              "--fault-seed", "3",
                              "--max-attempts", "10",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 0
        assert "retried reads:" in out

    def test_chaos_join_refuses_worker_processes(self, two_trees, capsys):
        # A worker process would not draw from this process's injector.
        code, out, err = run(capsys, "join", "--inject-transient", "0.05",
                             "--workers", "2", "--mode", "processes",
                             str(two_trees[0]), str(two_trees[1]))
        assert code == 2
        assert "mode='processes'" in err
        assert "result pairs:" not in out

    def test_retry_exhaustion_is_exit_4(self, two_trees, capsys):
        code, _out, err = run(capsys, "join",
                              "--inject-transient", "1.0",
                              "--max-attempts", "2",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 4
        assert "retries" in err

    def test_lenient_join_reports_what_was_dropped(self, two_trees,
                                                   capsys):
        # End-to-end through the CLI: a corrupt subtree, loaded with
        # --lenient, must (a) exit 0, (b) print the CorruptionReport
        # summary — corrupt/orphaned/lost counts — on stderr, and (c)
        # still produce a usable join result on stdout.
        self.corrupt_leaf(two_trees[0])
        code, out, err = run(capsys, "join", "--lenient",
                             str(two_trees[0]), str(two_trees[1]))
        assert code == 0
        assert "degraded load" in err
        assert "corrupt page(s)" in err
        assert "object(s) lost" in err
        assert str(two_trees[1]) not in err     # only R1 degraded
        assert "result pairs:" in out
        assert "node accesses NA:" in out

    def test_lenient_query_degrades_with_warning(self, saved_tree,
                                                 capsys):
        self.corrupt_leaf(saved_tree)
        code, out, err = run(capsys, "query", "--lenient",
                             str(saved_tree),
                             "--window", "0", "0", "1", "1")
        assert code == 0
        assert "degraded load" in err
        assert "range query" in out

    def test_lenient_join_finds_fewer_pairs_than_clean(self, tmp_path,
                                                       capsys):
        # The degraded answer is a strict under-approximation: dropping
        # a leaf can only lose pairs, never invent them.
        paths = []
        for seed in (16, 17):
            data = tmp_path / f"d{seed}.txt"
            tree = tmp_path / f"t{seed}.json"
            run(capsys, "generate", "uniform", "-n", "250", "-d", "0.5",
                "--seed", str(seed), "-o", str(data))
            run(capsys, "build", str(data), "-M", "8", "-o", str(tree))
            paths.append(tree)

        def pairs_of(out):
            for line in out.splitlines():
                if line.startswith("result pairs:"):
                    return int(line.split(":")[1])
            raise AssertionError(f"no pair count in {out!r}")

        _, clean_out, _ = run(capsys, "join", str(paths[0]),
                              str(paths[1]))
        self.corrupt_leaf(paths[0])
        code, degraded_out, _err = run(capsys, "join", "--lenient",
                                       str(paths[0]), str(paths[1]))
        assert code == 0
        assert pairs_of(degraded_out) < pairs_of(clean_out)


class TestGovernorCli:
    """Exit code 5: budgets, admission control, partial + resume."""

    @pytest.fixture
    def two_trees(self, tmp_path, capsys):
        paths = []
        for seed in (21, 22):
            data = tmp_path / f"d{seed}.txt"
            tree = tmp_path / f"t{seed}.json"
            run(capsys, "generate", "uniform", "-n", "300", "-d", "0.5",
                "--seed", str(seed), "-o", str(data))
            run(capsys, "build", str(data), "-M", "8", "-o", str(tree))
            paths.append(tree)
        return paths

    @staticmethod
    def reason_of(out):
        import json
        for line in out.splitlines():
            if line.startswith("{"):
                return json.loads(line)
        raise AssertionError(f"no JSON reason in {out!r}")

    def test_budget_exhaustion_is_exit_5_with_json(self, two_trees,
                                                   capsys):
        code, out, err = run(capsys, "join", "--max-na", "5",
                             "--admission", "off",
                             str(two_trees[0]), str(two_trees[1]))
        assert code == 5
        assert "error:" in err
        reason = self.reason_of(out)
        assert reason["error"] == "budget-exceeded"
        assert reason["resource"] == "na"
        assert reason["limit"] == 5

    def test_deadline_is_exit_5(self, two_trees, capsys):
        code, out, _err = run(capsys, "join", "--deadline", "1e-9",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 5
        assert self.reason_of(out)["resource"] == "deadline"

    def test_admission_reject_before_any_read(self, two_trees, capsys):
        code, out, _err = run(capsys, "join", "--max-na", "5",
                              "--admission", "reject",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 5
        assert "result pairs:" not in out    # never started executing
        assert "node accesses" not in out
        reason = self.reason_of(out)
        assert reason["error"] == "admission-rejected"
        assert reason["predicted"] is True

    def test_admission_reject_with_workers(self, two_trees, capsys):
        # The parallel join goes through the same admission door.
        code, out, _err = run(capsys, "join", "--max-na", "5",
                              "--admission", "reject", "--workers", "2",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 5
        assert "result pairs:" not in out
        reason = self.reason_of(out)
        assert reason["error"] == "admission-rejected"
        assert reason["predicted"] is True

    def test_admission_warn_proceeds(self, two_trees, capsys):
        # Same impossible budget, warn mode: the warning names the
        # predicted overrun but execution starts (and is then stopped
        # by the runtime check, not by admission).
        code, out, err = run(capsys, "join", "--max-na", "5",
                             "--admission", "warn",
                             str(two_trees[0]), str(two_trees[1]))
        assert code == 5
        assert "admission" in err and "proceeding" in err
        assert self.reason_of(out)["error"] == "budget-exceeded"

    def test_partial_then_resume_matches_uninterrupted(self, two_trees,
                                                       tmp_path, capsys):
        def totals(out):
            na = da = None
            for line in out.splitlines():
                if line.startswith("node accesses NA:"):
                    na = line
                if line.startswith("disk accesses DA:"):
                    da = line
            return na, da

        code, full_out, _err = run(capsys, "join", str(two_trees[0]),
                                   str(two_trees[1]))
        assert code == 0

        ckpt = tmp_path / "join.ckpt"
        code, out, _err = run(capsys, "join", "--max-na", "10",
                              "--partial", "--checkpoint", str(ckpt),
                              "--admission", "off",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 5
        assert ckpt.exists()
        assert "partial pairs so far:" in out
        assert "result pairs:" not in out
        assert f"--resume {ckpt}" in out
        assert self.reason_of(out)["resource"] == "na"

        code, resumed_out, _err = run(capsys, "join",
                                      "--resume", str(ckpt),
                                      str(two_trees[0]),
                                      str(two_trees[1]))
        assert code == 0
        assert "result pairs:" in resumed_out
        assert totals(resumed_out) == totals(full_out)

    def test_partial_without_checkpoint_warns(self, two_trees, capsys):
        code, _out, err = run(capsys, "join", "--max-na", "10",
                              "--partial", "--admission", "off",
                              str(two_trees[0]), str(two_trees[1]))
        assert code == 5
        assert "not resumable" in err

    def test_resume_against_wrong_tree_is_exit_2(self, two_trees,
                                                 tmp_path, capsys):
        ckpt = tmp_path / "join.ckpt"
        run(capsys, "join", "--max-na", "10", "--partial",
            "--checkpoint", str(ckpt), "--admission", "off",
            str(two_trees[0]), str(two_trees[1]))
        other_data = tmp_path / "d99.txt"
        other_tree = tmp_path / "t99.json"
        run(capsys, "generate", "uniform", "-n", "100", "-d", "0.5",
            "--seed", "99", "-o", str(other_data))
        run(capsys, "build", str(other_data), "-M", "8",
            "-o", str(other_tree))
        code, _out, err = run(capsys, "join", "--resume", str(ckpt),
                              str(other_tree), str(two_trees[1]))
        assert code == 2
        assert "fingerprint" in err

    def test_experiment_budget_is_exit_5(self, capsys):
        code, out, _err = run(capsys, "experiment", "fig5a",
                              "--scale", "smoke", "--max-na", "1")
        assert code == 5
        assert self.reason_of(out)["error"] == "budget-exceeded"


class TestEngineDifferential:
    """The same governed CLI join on level-batch and on the Fig. 2
    machine."""

    @pytest.fixture
    def two_trees(self, tmp_path, capsys):
        paths = []
        for seed in (31, 32):
            data = tmp_path / f"r{seed}.txt"
            tree = tmp_path / f"r{seed}.json"
            run(capsys, "generate", "uniform", "-n", "400", "-d", "0.5",
                "--seed", str(seed), "-o", str(data))
            run(capsys, "build", str(data), "-M", "16", "-o", str(tree))
            paths.append(str(tree))
        return paths

    @pytest.mark.parametrize("faults", [
        (), ("--inject-transient", "0.05", "--fault-seed", "7")],
        ids=["plain", "faults"])
    def test_sampled_node_pairs_and_counters(self, two_trees, tmp_path,
                                             capsys, faults):
        """Sampled node pairs and counters alike on both traversals; with
        transient faults the join reads through a retrying reader, which
        level-batch charges read by read."""
        import json

        def traced(*flags):
            trace = tmp_path / f"trace{len(flags)}.jsonl"
            code, out, _err = run(
                capsys, "join", *two_trees, "--max-na", "100000",
                "--trace", str(trace), "--sample-pairs", "25", *faults,
                *flags)
            assert code == 0
            assert ("retried reads" in out) == bool(faults)
            events = [json.loads(line)
                      for line in trace.read_text().splitlines()]
            finish, = [e for e in events if e["event"] == "join_finish"]
            return ([(e["visit"], e["page1"], e["level1"], e["page2"],
                      e["level2"]) for e in events
                     if e["event"] == "node_pair"],
                    [finish[k] for k in ("na", "da", "pairs",
                                         "comparisons")])

        batch, stack = traced(), traced("--traversal", "stack")
        assert batch[0] and batch == stack

    def test_budget_trip_checkpoints_to_the_same_bytes(self, two_trees,
                                                       tmp_path, capsys):
        files = []
        for name, flags in (("cp-batch.json", ()),
                            ("cp-stack.json", ("--traversal", "stack"))):
            files.append(tmp_path / name)
            code, _out, _err = run(
                capsys, "join", *two_trees, "--max-na", "120",
                "--partial", "--admission", "off",
                "--checkpoint", str(files[-1]), *flags)
            assert code == 5
        assert files[0].read_bytes() == files[1].read_bytes()
