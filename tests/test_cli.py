import hashlib
import importlib.util
import itertools
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import weyl_order.dimensions as dimensions
from weyl_order import Weight, build_poset, cli, root_system
from weyl_order.cli import SweepConfig, sweep_items


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSingleShot:
    def test_poset_artifacts(self, tmp_path, capsys):
        code, out, _ = run(capsys, "poset", "--lambda", "2,1", "--k", "2",
                           "--out-dir", str(tmp_path), "--dot")
        assert code == 0
        assert "3 classes, 2 cover edges" in out
        payload = json.loads((tmp_path / "poset_lam2-1_k2.json").read_text())
        assert payload["num_classes"] == 3
        assert payload["hasse"] == [[0, 1, "type_two"], [1, 2, "type_two"]]
        dot = (tmp_path / "poset_lam2-1_k2.dot").read_text()
        assert dot.startswith("digraph")

    def test_max(self, tmp_path, capsys):
        code, out, _ = run(capsys, "max", "--lambda", "2,1", "--k", "2",
                           "--out-dir", str(tmp_path), "--json")
        assert code == 0
        assert "bottom (2,1)/(0,0)" in out
        assert "top    (1,1)/(1,0)" in out
        payload = json.loads((tmp_path / "max_lam2-1_k2.json").read_text())
        assert payload["top"]["parts"][0]["omega"] == [1, 1]

    def test_covers(self, tmp_path, capsys):
        code, out, _ = run(capsys, "covers", "--lambda", "2,0", "--k", "2",
                           "--out-dir", str(tmp_path), "--json")
        assert code == 0
        assert "[type_one]" in out
        payload = json.loads((tmp_path / "covers_lam2-0_k2.json").read_text())
        assert [c["kind"] for c in payload["covers"]] == ["type_one"]

    def test_dim(self, tmp_path, capsys):
        code, out, _ = run(capsys, "dim", "--type", "C2",
                           "--tuple", "2,1/0,0",
                           "--out-dir", str(tmp_path), "--json")
        assert code == 0
        assert out.strip() == "35 * 1 = 35"
        payload = json.loads((tmp_path / "dim_C2.json").read_text())
        assert payload["dim"] == 35 and payload["part_dims"] == [35, 1]

    def test_size(self, capsys):
        code, out, _ = run(capsys, "size", "--lambda", "2,1", "--k", "2")
        assert code == 0
        assert "ordered tuples: 6" in out
        assert "classes (closed form): 3" in out

    def test_size_rejects_a_non_dominant_lambda(self, capsys):
        code, out, err = run(capsys, "size", "--lambda", "1,-1")
        assert code == 2
        assert out == ""
        assert "(1,-1) is not dominant" in err

    def test_size_k3_has_no_closed_form_line(self, capsys):
        code, out, _ = run(capsys, "size", "--lambda", "2,1", "--k", "3")
        assert code == 0
        assert "closed form" not in out


def covers_payload(lam, k):
    """The covers JSON as a dict, built from the poset the way the records
    of covers --json are: the oracle for the covers writer."""
    poset = build_poset(Weight(lam), k)
    labels = poset.labels
    return {"lambda": list(lam), "k": k, "covers": [
        {"low": labels[e.low], "high": labels[e.high], "kind": e.kind.value,
         "witness": e.witness.describe() if e.witness else None}
        for e in poset.cover_edges]}


class TestJsonFiles:
    """The poset and covers files are the bytes json.dumps(sort_keys=True,
    indent=2) gives, plus a newline."""

    @staticmethod
    def dumps(payload):
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def covers_file(self, capsys, tmp_path, lam, k):
        slug = "-".join(map(str, lam))
        code, *_ = run(capsys, "covers", "--lambda", ",".join(map(str, lam)),
                       "--k", str(k), "--json", "--out-dir", str(tmp_path))
        assert code == 0
        return (tmp_path / f"covers_lam{slug}_k{k}.json").read_text()

    def test_poset_file_matches_dumps(self, tmp_path, capsys):
        code, *_ = run(capsys, "poset", "--lambda", "3,1,2", "--k", "3",
                       "--out-dir", str(tmp_path))
        assert code == 0
        want = self.dumps(build_poset(Weight((3, 1, 2)), 3).to_json())
        assert (tmp_path / "poset_lam3-1-2_k3.json").read_text() == want

    def test_covers_k2_grid_matches_dumps(self, tmp_path, capsys):
        # lambda = 0 included: one class, no covers
        for rank in (1, 2, 3):
            for lam in itertools.product(range(3), repeat=rank):
                got = self.covers_file(capsys, tmp_path, lam, 2)
                assert got == self.dumps(covers_payload(lam, 2)), lam

    @pytest.mark.parametrize("lam", [(2, 2, 2, 2, 2, 2), (3, 0, 2)])
    def test_covers_k2_witnesses_match_dumps(self, tmp_path, capsys, lam):
        payload = covers_payload(lam, 2)
        assert {"type_one", "type_two"} <= {c["kind"] for c in payload["covers"]}
        assert self.covers_file(capsys, tmp_path, lam, 2) == self.dumps(payload)

    def test_covers_k3_are_null_and_unclassified(self, tmp_path, capsys):
        payload = covers_payload((2, 2), 3)
        assert payload["covers"]
        assert {(c["kind"], c["witness"]) for c in payload["covers"]} == \
            {("unclassified", None)}
        assert self.covers_file(capsys, tmp_path, (2, 2), 3) == \
            self.dumps(payload)

    def test_covers_writer_escapes_as_dumps_does(self):
        records = [{"low": 'a"b', "high": "back\\slash", "kind": "tab\t",
                    "witness": None},
                   {"low": "\u00e9\u2603", "high": "", "kind": "\n",
                    "witness": "\x00"}]
        want = self.dumps({"lambda": [2, 0], "k": 2, "covers": records})
        assert cli.covers_json_text(Weight((2, 0)), 2, records) == want

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        assert run(capsys, "poset", "--lambda", "2,1", "--k", "3", "--dot",
                   "--out-dir", str(tmp_path))[0] == 0
        assert run(capsys, "covers", "--lambda", "2,2", "--k", "2", "--json",
                   "--out-dir", str(tmp_path))[0] == 0
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("poset_lam2-1_k3.json", "poset_lam2-1_k3.dot",
                               "covers_lam2-2_k2.json")}
        assert digest == {
            "poset_lam2-1_k3.json":
                "43f8a73f5423e96ff2c2c0604e2e3af2bc58d0b13c55411e811c584f5a40c8f1",
            "poset_lam2-1_k3.dot":
                "dea6cb124442677fed2c382916192f0eef79d1e6125ac545074fa6304ff9bb94",
            "covers_lam2-2_k2.json":
                "68a982f761f93ac910def299701f10142f5a831c08ef92cfa93c6928e03ebe3f",
        }


class TestStartup:
    def test_importing_the_cli_loads_no_process_pool(self):
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "import weyl_order.cli; "
                 "print('concurrent.futures.process' in sys.modules, "
                 "'multiprocessing' in sys.modules)")
        done = subprocess.run([sys.executable, "-I", "-c", probe, str(src)],
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["False", "False"]


class TestVerify:
    ARGS = ("verify", "--families", "A", "--max-coord", "1", "--max-k", "2")

    def test_small_sweep_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--out-dir", str(tmp_path))
        assert code == 0
        assert "0 violations" in out
        payload = json.loads((tmp_path / "verify_report.json").read_text())
        assert payload["num_violations"] == 0
        assert payload["num_checks"] == len(payload["items"]) > 0
        csv_text = (tmp_path / "verify_report.csv").read_text()
        assert csv_text.splitlines()[0] == "item,ok,skipped"

    def test_parallel_run_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *self.ARGS, "--jobs", "1", "--out-dir", str(a))[0] == 0
        assert run(capsys, *self.ARGS, "--jobs", "2", "--out-dir", str(b))[0] == 0
        assert (a / "verify_report.json").read_bytes() == \
            (b / "verify_report.json").read_bytes()

    def test_selftest_corrupt_trips_the_sweep(self, tmp_path, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--selftest-corrupt",
                           "--out-dir", str(tmp_path))
        assert code == 1
        assert "VIOLATION" in out

    def test_report_bytes_are_pinned(self, tmp_path, capsys):
        code, *_ = run(capsys, "verify", "--out-dir", str(tmp_path))
        assert code == 0
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("verify_report.json", "verify_report.csv")}
        assert digest == {
            "verify_report.json":
                "ef207966d937bc9e92f21d4d5f6c805975f6d776724a486f28b813e5f6930ba3",
            "verify_report.csv":
                "9760790c991ba3dd298e8cfb3708c93bb2be06c60ac2089aca1754d5513f3716",
        }

    def test_extremes_row_reports_a_cover_walk_off_the_order(self):
        poset = build_poset(Weight((2, 2)), 3)
        item = ("extremes", "A", 2, (2, 2), 3, 10**6, False)
        assert cli.run_sweep_item(item, lambda: poset)["violations"] == []
        poset.__dict__["hasse_edges"] = poset.hasse_edges[1:]
        row = cli.run_sweep_item(item, lambda: poset)
        assert row["violations"] == ["strict order is not transitive"]

    def test_each_part_dimension_is_computed_once(self, monkeypatch):
        root_system.cache_clear()  # start from empty per-system tables
        calls = Counter()
        real = dimensions.weyl_dim

        def counting(w):
            calls[(w.system.name, w.coords)] += 1
            return real(w)
        monkeypatch.setattr(dimensions, "weyl_dim", counting)
        rows = cli.run_sweep(SweepConfig(max_coord=2, max_k=3))
        assert all(r["ok"] for r in rows)
        assert calls and set(calls.values()) == {1}

    def test_unknown_family(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", "--families", "Q",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "unknown family" in err

    def test_sweep_builds_each_fiber_once(self, monkeypatch):
        built = Counter()
        real = cli.build_poset

        def counting(lam, k, guard):
            built[(lam.omega, k)] += 1
            return real(lam, k, guard)
        monkeypatch.setattr(cli, "build_poset", counting)
        cfg = SweepConfig(max_coord=2, max_k=3)
        items = sweep_items(cfg)
        assert len(cli.run_sweep(cfg)) == len(items)
        fibers = {(it[3], it[4]) for it in items if it[3] is not None}
        assert set(built) == fibers
        assert set(built.values()) == {1}

    def test_grouped_rows_match_items_run_alone(self):
        # reference route: each item in a group of its own, on a fresh poset
        cfg = SweepConfig(families=("A", "C"), max_coord=2, max_k=3,
                          guard=3, corrupt=True)
        items = sweep_items(cfg)
        alone = [cli.run_fiber([it])[0] for it in items]
        grouped = cli.run_sweep(cfg)
        assert grouped == alone
        assert any(r["skipped"] for r in alone)
        assert any(r["violations"] for r in alone)

    def test_pool_size_is_bounded(self):
        huge = 10**12
        assert cli.pool_size(huge, 2, huge) == 2
        assert cli.pool_size(huge, huge, 3) == 3
        assert cli.pool_size(4, huge, huge) == 4
        assert cli.pool_size(huge, None, huge) == 1
        assert cli.pool_size(0, 8, 8) == 1
        assert cli.pool_size(8, 8, 0) == 1

    def test_guarded_items_are_skipped_not_failed(self, tmp_path, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--guard", "3",
                           "--out-dir", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "verify_report.json").read_text())
        assert payload["skipped"]
        assert payload["num_violations"] == 0


class TestFailureModes:
    def test_bad_weight(self, capsys):
        code, _, err = run(capsys, "size", "--lambda", "2,x")
        assert code == 2
        assert "cannot parse weight" in err

    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "dim", "--type", "E8",
                           "--tuple", "1,0/0,0")
        assert code == 2

    def test_guard_exit_code(self, tmp_path, capsys):
        code, _, err = run(capsys, "poset", "--lambda", "4,4", "--k", "2",
                           "--guard", "10", "--out-dir", str(tmp_path))
        assert code == 3
        assert "guard exceeded" in err

    def test_guard_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WEYL_ORDER_GUARD", "10")
        code, *_ = run(capsys, "poset", "--lambda", "4,4", "--k", "2",
                       "--out-dir", str(tmp_path))
        assert code == 3
        # an explicit flag beats the environment
        code, *_ = run(capsys, "poset", "--lambda", "4,4", "--k", "2",
                       "--guard", "1000", "--out-dir", str(tmp_path))
        assert code == 0

    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_bad_guard_flag(self, tmp_path, capsys, value):
        code, _, err = run(capsys, "poset", "--lambda", "2,1",
                           "--guard", value, "--out-dir", str(tmp_path))
        assert code == 2
        assert "--guard" in err

    @pytest.mark.parametrize("argv,flag", [
        (("max", "--lambda", "2,1", "--k", "0"), "--k"),
        (("poset", "--lambda", "2,1", "--k", "-1"), "--k"),
        (("covers", "--lambda", "2,1", "--k", "two"), "--k"),
        (("size", "--lambda", "2,1", "--k", "0"), "--k"),
        (("verify", "--jobs", "-4"), "--jobs"),
        (("verify", "--jobs", "0"), "--jobs"),
        (("verify", "--max-coord", "-1"), "--max-coord"),
        (("verify", "--max-coord", "0"), "--max-coord"),
        (("verify", "--max-k", "0"), "--max-k"),
        (("verify", "--max-k", "1"), "--max-k"),
        (("verify", "--max-coord", "-1", "--max-k", "0"), "--max-coord"),
    ])
    def test_bad_count_flag(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)  # a call that slipped through writes here
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert flag in err

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_guard_env_var(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("WEYL_ORDER_GUARD", value)
        code, _, err = run(capsys, "poset", "--lambda", "2,1",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "WEYL_ORDER_GUARD" in err

    @pytest.mark.parametrize("argv", [
        ("poset", "--lambda", "2,1", "--json"),
        ("size", "--lambda", "2,1", "--json"),
        ("size", "--lambda", "2,1", "--guard", "5"),
        ("max", "--lambda", "2,1", "--guard", "5"),
        ("dim", "--type", "C2", "--tuple", "2,1/0,0", "--guard", "5"),
        ("size", "--lambda", "2,1"),
    ])
    def test_flags_nothing_reads_are_gone(self, tmp_path, capsys, argv):
        code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv,under_file", [
        (("poset", "--lambda", "2,1", "--dot"), True),
        (("covers", "--lambda", "2,1", "--json"), True),
        (("verify", "--families", "A", "--max-coord", "1", "--max-k", "2"),
         False),
    ])
    def test_unwritable_out_dir_is_exit_2(self, tmp_path, capsys, argv,
                                          under_file):
        # a regular file where the output directory, or one of its
        # parents, should be: exit 1 means violations, so this is 2
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out_dir = blocker / "sub" if under_file else blocker
        code, _, err = run(capsys, *argv, "--out-dir", str(out_dir))
        assert code == 2
        assert "--out-dir" in err and str(out_dir) in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("under_file", [False, True])
    def test_verify_checks_out_dir_before_the_sweep(self, tmp_path, capsys,
                                                    monkeypatch, under_file):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran before --out-dir was checked")
        monkeypatch.setattr(cli, "run_sweep", refuse)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out_dir = blocker / "sub" if under_file else blocker
        code, _, err = run(capsys, "verify", "--max-coord", "5", "--max-k", "4",
                           "--out-dir", str(out_dir))
        assert code == 2
        assert "--out-dir" in err and str(out_dir) in err
        assert blocker.read_text() == "not a directory\n"

    def test_argparse_error_becomes_exit_2(self, capsys):
        assert cli.main(["poset"]) == 2  # --lambda is required
        capsys.readouterr()


def load_script(name):
    """Import scripts/<name>.py as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDeskSweepScript:
    @staticmethod
    def script():
        return load_script("run_desk_sweep")

    @pytest.mark.parametrize("argv,needle", [
        (("--jobs", "0"), "--jobs"),
        (("--jobs", "-2"), "--jobs"),
        (("--max-coord", "0"), "--max-coord"),
        (("--max-k", "1"), "--max-k"),
        (("--families", "A,Q"), "unknown family"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            self.script().main(list(argv) + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "desk_sweep.json").exists()


class TestPosetSizeTableScript:
    @staticmethod
    def script():
        return load_script("poset_size_table")

    @pytest.mark.parametrize("argv,needle", [
        (("--rank", "0"), "--rank"),
        (("--rank", "x"), "--rank"),
        (("--max-coord", "-1"), "--max-coord"),
        (("--max-coord", "0"), "--max-coord"),
        (("--max-k", "1"), "--max-k"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, needle):
        out = tmp_path / "table.csv"
        with pytest.raises(SystemExit) as exc:
            self.script().main(list(argv) + ["--out", str(out)])
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_small_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert self.script().main(["--rank", "1", "--max-coord", "2",
                                   "--max-k", "2", "--out", str(out)]) == 0
        assert "3 fibers; closed form mismatches at k=2: 0" in \
            capsys.readouterr().out
        assert out.read_text().splitlines() == [
            "lambda,tuples_k2,classes_k2,closed_form_k2",
            "0,1,1,1", "1,2,1,1", "2,3,2,2"]
