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
from weyl_order import (Weight, base_rank, build_poset, cli,
                        maximal_element, minimal_element, root_system)
from weyl_order.cli import SweepConfig, fiber_checks, sweep_fibers


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

    def test_poset_off_k2_builds_no_weight_tuple(self, tmp_path, capsys,
                                                 monkeypatch):
        # off k = 2 both files are written from the classes' omega tuples
        # and the cover rows: no representative is built
        from weyl_order import WeightTuple

        def refuse(self, parts):
            raise AssertionError("the poset command built a WeightTuple")
        monkeypatch.setattr(WeightTuple, "__init__", refuse)
        code, out, _ = run(capsys, "poset", "--lambda", "2,2,1", "--k", "3",
                           "--out-dir", str(tmp_path), "--dot")
        assert code == 0
        monkeypatch.undo()
        poset = build_poset(Weight((2, 2, 1)), 3)
        assert f"{len(poset)} classes, {len(poset.hasse_edges)} cover edges" \
            in out
        assert (tmp_path / "poset_lam2-2-1_k3.json").read_text() == \
            poset.json_text()
        assert (tmp_path / "poset_lam2-2-1_k3.dot").read_text() == \
            poset.to_dot()

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

    @pytest.mark.parametrize("argv", [
        ("poset", "--lambda", "0,0", "--k", "1000"),
        ("covers", "--lambda", "1", "--k", "2000"),
    ])
    def test_large_k_within_the_guard_exits_0(self, tmp_path, capsys, argv):
        # one and 2000 ordered tuples: the guard passes, and the fiber walk
        # must not recurse once per part
        code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 0, err

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

    def test_max_rejects_a_non_dominant_lambda(self, capsys):
        code, out, err = run(capsys, "max", "--lambda", "1,-1")
        assert code == 2
        assert out == ""
        assert "error: (1,-1) is not dominant" in err
        assert "part" not in err

    def test_huge_fiber_exits_3_before_any_part(self, tmp_path, capsys,
                                                monkeypatch):
        # C(39999, 19999) has over 12,000 digits: the count stops past the
        # printable cap, and no part of the fiber is listed
        from weyl_order import posets
        walked = []
        monkeypatch.setattr(posets, "_part_multisets",
                            lambda *a: walked.append(a) or iter(()))
        for command in ("poset", "covers"):
            code, out, err = run(capsys, command, "--lambda", "20000",
                                 "--k", "20000", "--out-dir", str(tmp_path))
            assert (code, out) == (3, "")
            assert err == ("guard exceeded: would enumerate at least "
                           "10**4300 tuples (guard 1000000)\n")
        assert walked == []

    def test_size_past_the_printable_count_exits_2(self, capsys,
                                                   monkeypatch):
        # the exact count would take math.comb most of a minute, and could
        # not be printed; the capped count stops after about a thousand steps
        counted = []
        monkeypatch.setattr(cli, "count_tuples",
                            lambda *a: counted.append(a) or 0)
        code, out, err = run(capsys, "size", "--lambda", "1000000",
                             "--k", "1000000")
        assert (code, out) == (2, "")
        assert err == ("error: --lambda 1000000 --k 1000000 give at least "
                       "10**4300 ordered tuples, past the limit of what "
                       "size prints\n")
        assert counted == []

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
    """The poset, covers, max, dim and verify report files are the bytes
    json.dumps(sort_keys=True, indent=2) gives, plus a newline."""

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

    @pytest.mark.parametrize("lam, k", [((2,) * 6, 2), ((2, 2, 2, 2), 2),
                                        ((3, 0, 2), 2), ((2, 2), 3)])
    def test_covers_output_matches_the_edge_route(self, tmp_path, capsys,
                                                  lam, k):
        # the reference route: edge and witness objects, each witness
        # worded by describe, each string quoted by json.dumps
        poset = build_poset(Weight(lam), k)
        labels = poset.labels
        edges = [(labels[e.low], labels[e.high], e.kind.value,
                  e.witness.describe() if e.witness else None)
                 for e in poset.cover_edges]
        lines = "".join(f"{low} -> {high} [{kind}]"
                        + ("" if text is None else f" ({text})") + "\n"
                        for low, high, kind, text in edges)
        records = [dict(zip(("low", "high", "kind", "witness"), edge))
                   for edge in edges]
        code, out, err = run(capsys, "covers", "--lambda",
                             ",".join(map(str, lam)), "--k", str(k), "--json",
                             "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert out == lines
        slug = "-".join(map(str, lam))
        assert (tmp_path / f"covers_lam{slug}_k{k}.json").read_text() == \
            self.dumps({"lambda": list(lam), "k": k, "covers": records})
        witnesses = {text for *_, text in edges}
        if k == 2:
            assert None not in witnesses
        else:  # all unclassified: no witness text, a null in the file
            assert witnesses == {None} and edges
            assert all(line.endswith("[unclassified]")
                       for line in out.splitlines())

    def test_covers_writer_escapes_as_dumps_does(self, monkeypatch):
        # the route covers --json takes, TuplePoset.covers_text, with odd
        # labels put on the poset and odd witness texts worded in place of
        # _witness_text's: the file quotes them as json.dumps does
        from weyl_order import posets
        odd = ['a"b', "back\\slash", "tab\t", "\u00e9\u2603", "", "\n",
               "nul\x00", "100%", "%s %% %(x)s"]
        worded = []
        monkeypatch.setattr(posets, "_witness_text", lambda *fields: (
            worded.append(odd[-1 - len(worded)]) or worded[-1]))
        poset = build_poset(Weight((2, 2)), 2)
        labels = poset.__dict__["labels"] = tuple(odd[:len(poset)])
        out, chunks = poset.covers_text(True)
        edges = poset.cover_edges
        # 5 labels and 6 witness texts: every odd string is written
        assert len(worded) == len(edges) == 6
        assert set(labels) | set(worded) == set(odd)
        records = [{"low": labels[e.low], "high": labels[e.high],
                    "kind": e.kind.value, "witness": text}
                   for e, text in zip(edges, worded)]
        assert "".join(chunks) == self.dumps(
            {"lambda": [2, 2], "k": 2, "covers": records})
        assert out == "".join(
            f"{r['low']} -> {r['high']} [{r['kind']}] ({r['witness']})\n"
            for r in records)

    @pytest.mark.parametrize("argv,code", [
        ((), 0),
        (("--selftest-corrupt",), 1),
        (("--guard", "40"), 0),
    ])
    def test_verify_report_matches_dumps(self, tmp_path, capsys, argv, code):
        # a clean sweep, one with violations, one with skipped rows and
        # their notes; the payload rebuilt from the rows run_sweep returns
        grid = ("--families", "A,C,B,D", "--max-coord", "3", "--max-k", "3")
        assert run(capsys, "verify", *grid, *argv,
                   "--out-dir", str(tmp_path))[0] == code
        cfg = SweepConfig(max_coord=3, max_k=3,
                          guard=40 if "--guard" in argv else cli.DEFAULT_GUARD,
                          corrupt="--selftest-corrupt" in argv)
        rows = cli.run_sweep(cfg)
        violations = [v for r in rows for v in r["violations"]]
        skipped = [r["item"] for r in rows if r["skipped"]]
        assert bool(violations) == (code == 1)
        assert bool(skipped) == ("--guard" in argv)
        assert all("note" in r for r in rows if r["skipped"])
        want = self.dumps({
            "config": {"families": ["A", "C", "B", "D"], "max_coord": 3,
                       "max_k": 3, "guard": cfg.guard,
                       "corrupt": cfg.corrupt},
            "num_checks": len(rows),
            "num_violations": len(violations),
            "skipped": skipped,
            "items": rows,
        })
        assert (tmp_path / "verify_report.json").read_bytes() == want.encode()

    @pytest.mark.parametrize("skipped", [[], ["a\"b%s", "\u00e9\x00\t"]])
    def test_verify_report_writer_escapes_as_dumps_does(self, skipped):
        odd = ['q"uote', "back\\slash", "tab\t", "\u00e9\u2603", "nul\x00",
               "100%", "%s %% %(x)s", ""]
        rows = [{"item": odd[i], "ok": not odd[i + 1], "skipped": False,
                 "violations": odd[i:i + 3]} for i in range(len(odd) - 2)]
        rows += [{"item": text, "ok": True, "skipped": True,
                  "violations": [], "note": odd[-1 - i]}
                 for i, text in enumerate(odd)]
        rows.append({"item": "%", "ok": False, "skipped": False,
                     "violations": []})
        payload = {"config": {"families": ["A"], "max_coord": 1, "max_k": 2,
                              "guard": 7, "corrupt": True},
                   "num_checks": len(rows), "num_violations": 3,
                   "skipped": skipped, "items": rows}
        assert "".join(cli._report_chunks(payload)) == self.dumps(payload)
        payload["items"] = []
        assert "".join(cli._report_chunks(payload)) == self.dumps(payload)

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

    @pytest.mark.parametrize("lam, digest", [
        ("3,0,2",
         "c7b087e42cd3e0f6e2a2e406707579064e23c1d9ae0046c84925036fb5a91113"),
        ("2,2,2,2",
         "5fe3c2c9cc5708ffb757e143a4a3d8d8138543339d121303f1093b3e0fc0bcaf"),
    ])
    def test_covers_stdout_bytes_are_pinned(self, capsys, lam, digest):
        code, out, err = run(capsys, "covers", "--lambda", lam, "--k", "2")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_covers_builds_record_texts_only_with_json(
            self, tmp_path, capsys, monkeypatch):
        # the record texts are quoted only for --json: each label once per
        # class, each kind once and each witness text once per cover
        from weyl_order import posets
        quoted = []
        real = posets._quote

        def counting(text):
            quoted.append(text)
            return real(text)
        monkeypatch.setattr(posets, "_quote", counting)
        argv = ["--lambda", "2,2,2,2,2,2", "--k", "2", "--out-dir", str(tmp_path)]
        code, plain, _ = run(capsys, "covers", *argv)
        assert (code, len(quoted)) == (0, 0)
        assert list(tmp_path.iterdir()) == []
        code, with_json, _ = run(capsys, "covers", *argv, "--json")
        assert (code, len(quoted)) == (0, 365 + 3 + 1362)
        assert with_json == plain and len(plain.splitlines()) == 1362
        payload = json.loads(
            (tmp_path / "covers_lam2-2-2-2-2-2_k2.json").read_text())
        assert len(payload["covers"]) == 1362

    def test_poset_dot_at_k2_builds_no_witness_edge_or_tuple(
            self, tmp_path, capsys, monkeypatch):
        from weyl_order import (CoverEdge, CoverWitness, Permutation,
                                WeightTuple)
        built = Counter()
        for cls in (CoverEdge, CoverWitness, Permutation, WeightTuple):
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kw):
                built[_cls.__name__] += 1
                _init(self, *args, **kw)
            monkeypatch.setattr(cls, "__init__", counting)
        argv = ["--lambda", "2,2,2,2", "--k", "2", "--out-dir", str(tmp_path)]
        assert run(capsys, "poset", *argv, "--dot")[0] == 0
        assert built == Counter()
        dot = (tmp_path / "poset_lam2-2-2-2_k2.dot").read_text()
        assert "[style=solid]" in dot and "[style=dashed]" in dot
        # covers words its witnesses off the decision list too, with and
        # without --json; the count sees them where they are built
        assert run(capsys, "covers", *argv)[0] == 0
        assert run(capsys, "covers", *argv, "--json")[0] == 0
        assert built == Counter()
        assert build_poset(Weight((2, 2, 2, 2)), 2).cover_edges
        assert set(built) == {"CoverEdge", "CoverWitness", "Permutation"}

    def test_rank_six_k2_output_bytes_are_pinned(self, tmp_path, capsys):
        # the covers_k2 benchmark fiber: its witness texts depend on the
        # order in which the sorters are drawn
        lam = ["--lambda", "2,2,2,2,2,2", "--k", "2", "--out-dir", str(tmp_path)]
        assert run(capsys, "covers", *lam, "--json")[0] == 0
        assert run(capsys, "poset", *lam, "--dot")[0] == 0
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("covers_lam2-2-2-2-2-2_k2.json",
                               "poset_lam2-2-2-2-2-2_k2.json",
                               "poset_lam2-2-2-2-2-2_k2.dot")}
        assert digest == {
            "covers_lam2-2-2-2-2-2_k2.json":
                "00a85b4d665f0caaf9804bf42febe795be163c55f62db58bff9d1039cc4a47b3",
            "poset_lam2-2-2-2-2-2_k2.json":
                "5e26ce84644534f96a9328c646de0f5242f375244c84fb31390c59e33cf14cdb",
            "poset_lam2-2-2-2-2-2_k2.dot":
                "0085f3ec76c3756d92af2822ac8b5d6266d72295211116e0691ee90eaa0cafd6",
        }

    @pytest.mark.parametrize("lam, k, digests", [
        # the poset_k3 and poset_k6 benchmark fibers, pinned absolutely:
        # the other file tests compare against to_json, which moves with
        # the classes
        ("6,6,6", 3,
         ("c4c28602c9c9fef92828565161f2f994c57de0a32f5ecf86cfa9b58617732cd7",
          "0637cf08e5b7aed4004ff33384c40649d43219ec1b98ddad6b3bff43c53a7250")),
        ("5,5", 6,
         ("c07e690b67cbc2c900e9be0fea5afa10c9f65d44989f9e20d973faff5d4c48fe",
          "c94bd7238c282dbf4429788d66c62a99157727d04f2664ac2f75a1dd8746db15")),
    ])
    def test_poset_k3_and_k6_output_bytes_are_pinned(self, tmp_path, capsys,
                                                     lam, k, digests):
        assert run(capsys, "poset", "--lambda", lam, "--k", str(k), "--dot",
                   "--out-dir", str(tmp_path))[0] == 0
        stem = f"poset_lam{lam.replace(',', '-')}_k{k}"
        assert tuple(
            hashlib.sha256((tmp_path / f"{stem}{ext}").read_bytes()).hexdigest()
            for ext in (".json", ".dot")) == digests

    def test_max_and_dim_files_match_dumps(self, tmp_path, capsys):
        # both payload shapes, nested objects and arrays, no streamed array
        assert run(capsys, "max", "--lambda", "3,1,2", "--k", "3", "--json",
                   "--out-dir", str(tmp_path))[0] == 0
        assert run(capsys, "dim", "--type", "B3", "--tuple", "2,1/0,1",
                   "--json", "--out-dir", str(tmp_path))[0] == 0
        lam = Weight((3, 1, 2))
        bottom, top = minimal_element(lam, 3), maximal_element(lam, 3)
        assert (tmp_path / "max_lam3-1-2_k3.json").read_text() == self.dumps(
            {"lambda": [3, 1, 2], "k": 3, "bottom": bottom.to_json(),
             "top": top.to_json()})
        assert (tmp_path / "dim_B3.json").read_text() == self.dumps(
            {"system": "B3",
             "tuple": {"k": 2, "parts": [Weight((2, 1)).to_json(),
                                         Weight((0, 1)).to_json()]},
             "part_dims": [330, 21], "dim": 6930})


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

    def test_importing_the_cli_loads_no_dataclasses(self):
        # the value classes are written by hand: no dataclasses, and so no
        # inspect, is imported with the package
        src = Path(cli.__file__).resolve().parents[1]
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "import weyl_order.cli; "
                 "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
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

    @pytest.mark.parametrize("argv,code,digest", [
        # the benchmark's sweep workload
        (("--max-coord", "5", "--max-k", "4"), 0, {
            "verify_report.json":
                "011b385924de9446b742d8c4def07439ad0eb2b1120de5ae53c70597cd9475c2",
            "verify_report.csv":
                "be1f87c8afc386fb014f8fa7bed1e4091769a51a88a59babef7ac4a4e624fab9",
        }),
        (("--max-coord", "2", "--max-k", "3", "--guard", "20",
          "--selftest-corrupt"), 1, {
            "verify_report.json":
                "e7263c69c3a98889526b882b3b483187091d6602416d995fb5fe6bb967c51727",
            "verify_report.csv":
                "b48f7be700923d516ea871bbc23a2f8f2f359d1635aed49c1b53901bf108a3d6",
        }),
    ])
    def test_benchmark_and_corrupt_report_bytes_are_pinned(
            self, tmp_path, capsys, argv, code, digest):
        assert run(capsys, "verify", *argv, "--out-dir", str(tmp_path))[0] == code
        assert digest == {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digest}

    def test_fiber_only_work_runs_once_per_fiber(self, monkeypatch):
        import weyl_order.posets as posets
        calls = Counter()

        def counting(name):
            real = getattr(posets, name)

            def closed_form(lam, k):
                calls[(name, lam.omega, k)] += 1
                return real(lam, k)
            return closed_form
        for name in ("minimal_element", "maximal_element"):
            wrapped = counting(name)
            for module in (posets, cli, dimensions):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapped)
        cfg = SweepConfig(max_coord=2, max_k=3)
        rows = cli.run_sweep(cfg)
        assert rows and all(r["ok"] for r in rows)
        assert set(calls) == {(name, lam, k) for lam, k in sweep_fibers(cfg)
                              for name in ("minimal_element", "maximal_element")}
        assert set(calls.values()) == {1}

    def test_extremes_row_reports_a_cover_walk_off_the_order(self):
        poset = build_poset(Weight((2, 2)), 3)
        item = ("extremes", "A", 2, (2, 2), 3)
        assert cli.run_sweep_item(item, lambda: poset)["violations"] == []
        rows = poset.cover_rows
        poset.__dict__["cover_rows"] = (rows[0][1:],) + rows[1:]
        row = cli.run_sweep_item(item, lambda: poset)
        assert row["violations"] == ["strict order is not transitive"]

    def test_unknown_check_kind_is_a_failed_row(self):
        poset = build_poset(Weight((2, 1)), 2)
        item = ("no_such_check", "C", 2, (2, 1), 2)
        row = cli.run_sweep_item(item, lambda: poset)
        assert row == {"item": "no_such_check:C2:lam=2,1:k=2", "ok": False,
                       "skipped": False,
                       "violations": ["unexpected error: KeyError: "
                                      "'no_such_check'"]}

    def test_only_the_verifier_rows_look_up_a_root_system(self, monkeypatch):
        # size_k2 and extremes read the poset alone; the rows run fiber by
        # fiber, so the calls come in another order than the report's
        calls = []
        monkeypatch.setattr(cli, "root_system",
                            lambda *a: calls.append(a) or root_system(*a))
        cfg = SweepConfig(families=("A", "C"), max_coord=2, max_k=3)
        rows = cli.run_sweep(cfg)
        assert all(r["ok"] for r in rows)
        verifiers = [(fam, cfg.ambient_rank(fam)) for fam in cfg.families
                     for _, k in sweep_fibers(cfg) for kind in fiber_checks(k)
                     if kind in ("monotone_k2", "ledger_k2", "max_dim")]
        assert Counter(calls) == Counter(verifiers)

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

    @pytest.mark.parametrize("families", ["A,A", "C,A,B,A"])
    def test_repeated_family(self, tmp_path, capsys, families):
        # a repeated family would run each of its checks twice
        code, _, err = run(capsys, "verify", "--families", families,
                           "--max-coord", "1", "--max-k", "2",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert "repeated family 'A'" in err
        assert not (tmp_path / "verify_report.json").exists()

    def test_sweep_builds_each_fiber_once(self, monkeypatch):
        built = Counter()
        real = cli.build_poset

        def counting(lam, k, guard):
            built[(lam.omega, k)] += 1
            return real(lam, k, guard)
        monkeypatch.setattr(cli, "build_poset", counting)
        cfg = SweepConfig(max_coord=2, max_k=3)
        assert len(cli.run_sweep(cfg)) == cli.sweep_check_count(cfg)
        assert set(built) == set(sweep_fibers(cfg))
        assert set(built.values()) == {1}

    def test_run_fiber_is_handed_fibers_only(self, monkeypatch):
        # the table checks run once per family in this process, outside
        # any fiber, and no check item carries the guard or corrupt
        handed, inside, in_fiber, outside = [], [], [], []
        real_fiber, real_check = cli.run_fiber, cli.run_sweep_item

        def fiber(cfg, fib):
            handed.append(fib)
            inside.append(fib)
            try:
                return real_fiber(cfg, fib)
            finally:
                inside.pop()

        def check(item, *args):
            (in_fiber if inside else outside).append(item)
            return real_check(item, *args)
        monkeypatch.setattr(cli, "run_fiber", fiber)
        monkeypatch.setattr(cli, "run_sweep_item", check)
        cfg = SweepConfig(families=("A", "C"), max_coord=1, max_k=3,
                          guard=3, corrupt=True)
        rows = cli.run_sweep(cfg)
        assert handed == sweep_fibers(cfg)
        assert outside == [("table", "A", 2, None, None),
                           ("table", "C", 2, None, None)]
        assert {item[0] for item in in_fiber} == {
            "size_k2", "monotone_k2", "ledger_k2", "extremes", "max_dim"}
        assert {len(item) for item in in_fiber} == {5}
        assert len(rows) == len(outside) + len(in_fiber)
        assert [r["item"] for r in rows[:2]] == ["table:A2", "table:C2"]

    def test_large_k_fiber_checks_report_no_violation(self):
        cfg = SweepConfig(families=("A", "C"))
        rows = cli.run_fiber(cfg, ((1, 0), 1000))
        assert [[r["item"] for r in fam_rows] for fam_rows in rows] == [
            [f"{kind}:{fam}2:lam=1,0:k=1000" for kind in ("extremes", "max_dim")]
            for fam in "AC"]
        assert [r["violations"] for fam_rows in rows for r in fam_rows] == \
            [[]] * 4

    def test_ambient_systems_have_base_rank_two(self):
        cfg = SweepConfig()
        assert [cfg.ambient_rank(f) for f in "ACBD"] == [2, 2, 3, 4]
        for fam in cfg.families:
            assert base_rank(root_system(fam, cfg.ambient_rank(fam))) == 2

    def test_grouped_rows_match_items_run_alone(self):
        # reference route: each row's check run alone, on a fresh poset
        cfg = SweepConfig(families=("A", "C"), max_coord=2, max_k=3,
                          guard=3, corrupt=True)
        alone = [cli.run_sweep_item(("table", fam, cfg.ambient_rank(fam),
                                     None, None), None, cfg.corrupt)
                 for fam in cfg.families]
        alone += [cli.run_sweep_item(
            (kind, fam, cfg.ambient_rank(fam), lam, k),
            lambda: build_poset(Weight(lam), k, cfg.guard))
            for fam in cfg.families for lam, k in sweep_fibers(cfg)
            for kind in fiber_checks(k)]
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

    @pytest.mark.parametrize("system,base", [("C120", 120), ("A99999999", 99999999),
                                             ("D4", 2), ("B3", 2)])
    def test_rank_mismatch_builds_no_root_system(self, capsys, monkeypatch,
                                                 system, base):
        # a huge type is rejected on its name alone, before any coroot
        calls = []
        monkeypatch.setattr(cli, "root_system",
                            lambda *a: calls.append(a) or root_system(*a))
        code, _, err = run(capsys, "dim", "--type", system, "--tuple", "1/0")
        assert code == 2
        assert err == (f"error: rank-1 weight is not admissible for {system} "
                       f"(expected base rank {base})\n")
        assert calls == []

    @pytest.mark.parametrize("value,limit", [(0, 0), (9, 10), (10, 10)])
    def test_bound_passes_up_to_its_limit(self, value, limit):
        assert cli.check_bound("--k 10", value, limit) is None

    @pytest.mark.parametrize("value,limit", [(1, 0), (11, 10), (10**9, 10)])
    def test_bound_past_its_limit_names_the_input(self, value, limit):
        with pytest.raises(ValueError, match=rf"^--k {value} is over the "
                                             rf"limit of {limit}$"):
            cli.check_bound(f"--k {value}", value, limit)

    def test_max_past_its_k_limit_builds_no_part(self, tmp_path, capsys,
                                                 monkeypatch):
        def refuse(*args):
            raise AssertionError("max built a part past its k limit")
        monkeypatch.setattr(cli, "minimal_element", refuse)
        k = cli.MAX_K + 1
        code, out, err = run(capsys, "max", "--lambda", "1", "--k", str(k),
                             "--json", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == f"error: --k {k} is over the limit of {cli.MAX_K}\n"
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_K", 2)
        assert run(capsys, "max", "--lambda", "2,1", "--k", "2")[0] == 0
        assert run(capsys, "max", "--lambda", "2,1", "--k", "3")[0] == 2

    def test_dim_past_its_rank_limit_builds_no_root_system(self, capsys,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "root_system",
                            lambda *a: calls.append(a) or root_system(*a))
        rank = cli.MAX_DIM_RANK + 1
        part = ",".join(["1"] * rank)
        code, out, err = run(capsys, "dim", "--type", f"A{rank}",
                             "--tuple", f"{part}/{part}")
        assert code == 2 and out == ""
        assert err == (f"error: --type A{rank} (rank {rank}) is over the "
                       f"limit of {cli.MAX_DIM_RANK}\n")
        monkeypatch.setattr(cli, "MAX_DIM_RANK", 2)
        code, _, err = run(capsys, "dim", "--type", "B3", "--tuple", "1,0/0,1")
        assert code == 2 and "--type B3 (rank 3)" in err
        assert calls == []
        assert run(capsys, "dim", "--type", "C2", "--tuple", "2,1/0,0")[0] == 0
        assert calls == [("C", 2)]

    def test_guard_exit_code(self, tmp_path, capsys):
        code, _, err = run(capsys, "poset", "--lambda", "4,4", "--k", "2",
                           "--guard", "10", "--out-dir", str(tmp_path))
        assert code == 3
        assert "guard exceeded" in err

    @pytest.mark.parametrize("argv", [
        ("poset", "--lambda", "20000", "--k", "20000"),
        ("poset", "--lambda", "4,4", "--k", "2", "--guard", "10", "--dot"),
        ("covers", "--lambda", "20000", "--k", "20000", "--json"),
        ("covers", "--lambda", "4,4", "--k", "2", "--guard", "10", "--json"),
    ])
    def test_guard_rejected_call_creates_no_out_dir(self, tmp_path, capsys,
                                                    argv):
        out_dir = tmp_path / "x" / "y"
        code, out, err = run(capsys, *argv, "--out-dir", str(out_dir))
        assert (code, out) == (3, "")
        assert err.startswith("guard exceeded: ")
        assert list(tmp_path.iterdir()) == []

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

    def test_poset_into_a_regular_file_names_file_and_out_dir(self, tmp_path,
                                                              capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        code, _, err = run(capsys, "poset", "--lambda", "2,1", "--dot",
                           "--out-dir", str(blocker))
        assert code == 2
        assert err.startswith("error: cannot write poset_lam2-1_k2.json "
                              f"under --out-dir {str(blocker)!r}: ")
        assert blocker.read_text() == "not a directory\n"

    def test_a_streamed_file_that_cannot_be_opened_is_exit_2(self, tmp_path,
                                                             capsys):
        # the directory exists, but a directory sits where the DOT file goes
        (tmp_path / "poset_lam2-1_k2.dot").mkdir()
        code, _, err = run(capsys, "poset", "--lambda", "2,1", "--dot",
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot write poset_lam2-1_k2.dot "
                              f"under --out-dir {str(tmp_path)!r}: ")
        assert "Traceback" not in err

    def test_a_failure_while_computing_leaves_no_poset_file(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        import weyl_order.posets as posets

        def refuse(pair, frames):
            raise ValueError("no classification")
        monkeypatch.setattr(posets, "_decide", refuse)
        code, _, err = run(capsys, "poset", "--lambda", "2,1", "--k", "2",
                           "--dot", "--out-dir", str(tmp_path))
        assert code == 2
        assert err == "error: no classification\n"
        assert list(tmp_path.iterdir()) == []

    def test_verify_csv_is_written_without_newline_translation(
            self, tmp_path, capsys, monkeypatch):
        opened = {}
        real = Path.open

        def spy(path, *args, **kwargs):
            opened[path.name] = kwargs.get("newline", "unset")
            return real(path, *args, **kwargs)
        monkeypatch.setattr(Path, "open", spy)
        code, *_ = run(capsys, "verify", "--families", "A", "--max-coord", "1",
                       "--max-k", "2", "--out-dir", str(tmp_path))
        assert code == 0
        assert opened["verify_report.csv"] == ""
        assert opened["verify_report.json"] is None
        assert (tmp_path / "verify_report.csv").read_bytes().startswith(
            b"item,ok,skipped\r\n")

    @pytest.mark.parametrize("max_coord,max_k", [
        (1, 2), (1, 5), (2, 3), (5, 4), (3, 7)])
    @pytest.mark.parametrize("families", [("A",), ("A", "C", "B", "D")])
    def test_sweep_check_count_is_the_worklist_length(self, families,
                                                      max_coord, max_k):
        cfg = SweepConfig(families=families, max_coord=max_coord, max_k=max_k)
        count = cli.sweep_check_count(cfg)
        assert count == len(families) * (1 + sum(
            len(fiber_checks(k)) for _, k in sweep_fibers(cfg)))
        if max_coord <= 2:  # small enough to run
            assert count == len(cli.run_sweep(cfg))

    def test_sweep_check_count_past_the_limit(self):
        # counted from the flags alone: no fiber is listed
        assert cli.sweep_check_count(SweepConfig(max_coord=5, max_k=4)) == 1264
        big = SweepConfig(max_coord=3, max_k=10**8)
        assert cli.sweep_check_count(big) == 4 * (1 + 15 * (2 * 10**8 + 1))
        with pytest.raises(ValueError, match=r"^the sweep of --max-coord 3 "
                           r"and --max-k 100000000 \(12000000064 checks\) is "
                           rf"over the limit of {cli.MAX_SWEEP_CHECKS}$"):
            cli.check_sweep_size(big)
        small = SweepConfig(families=("A",), max_coord=1, max_k=2)
        assert cli.sweep_check_count(small) == 16
        assert cli.check_sweep_size(small) is None

    @pytest.mark.parametrize("max_k", ["100000000", "4"])
    def test_verify_past_its_check_limit_exits_2_before_the_sweep(
            self, tmp_path, capsys, monkeypatch, max_k):
        def refuse(*args, **kwargs):
            raise AssertionError("verify listed its fibers past the limit")
        monkeypatch.setattr(cli, "sweep_fibers", refuse)
        if max_k == "4":  # a limit below the benchmark's 1264 checks
            monkeypatch.setattr(cli, "MAX_SWEEP_CHECKS", 1263)
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "verify", "--max-coord", "5",
                             "--max-k", max_k, "--out-dir", str(out_dir))
        assert code == 2 and out == ""
        assert err.startswith(f"error: the sweep of --max-coord 5 and "
                              f"--max-k {max_k} (")
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("argv", [
        ("poset", "--lambda", "2,1,0", "--k", "2"),
        ("poset", "--lambda", "2,1,0", "--k", "2", "--dot"),
        ("covers", "--lambda", "2,1,0", "--k", "2", "--json"),
    ])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_out_dir_is_checked_before_the_poset(self, tmp_path, capsys,
                                                 monkeypatch, argv, under_file):
        # no poset is built and no cover line printed for a file that
        # cannot be written
        def refuse(*args, **kwargs):
            raise AssertionError("the poset was built before --out-dir was checked")
        monkeypatch.setattr(cli, "build_poset", refuse)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out_dir = blocker / "x" if under_file else blocker
        code, out, err = run(capsys, *argv, "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith("error: cannot write ")
        assert "--out-dir" in err and str(out_dir) in err
        assert out == ""
        assert blocker.read_text() == "not a directory\n"

    def test_covers_without_json_needs_no_out_dir(self, tmp_path, capsys):
        # only --json writes a file, so only --json checks the directory
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        code, out, err = run(capsys, "covers", "--lambda", "2,1,0", "--k", "2",
                             "--out-dir", str(blocker / "x"))
        assert (code, err) == (0, "")
        assert out.count("\n") == len(build_poset(Weight((2, 1, 0)), 2).hasse_edges)

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
        (("--families", "A,A"), "repeated family 'A'"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            self.script().main(list(argv) + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "desk_sweep.json").exists()

    @pytest.mark.parametrize("blocked", ["parent is a file",
                                         "report path is a directory"])
    def test_unusable_out_dir_exits_2_before_the_sweep(
            self, tmp_path, capsys, monkeypatch, blocked):
        script = self.script()

        def refuse(*args):
            raise AssertionError("the sweep ran before --out-dir was checked")
        monkeypatch.setattr(script, "run_sweep", refuse)
        if blocked == "parent is a file":
            (tmp_path / "file").write_text("")
            out_dir = tmp_path / "file" / "d"
        else:
            out_dir = tmp_path / "d"
            (out_dir / "desk_sweep.json").mkdir(parents=True)
        with pytest.raises(SystemExit) as exc:
            script.main(["--max-coord", "1", "--max-k", "2",
                         "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "--out-dir" in out.err
        assert out.out == ""

    def test_past_the_check_limit_exits_2_before_the_out_dir(
            self, tmp_path, capsys, monkeypatch):
        script = self.script()

        def refuse(*args):
            raise AssertionError("the desk sweep ran past the check limit")
        monkeypatch.setattr(script, "run_sweep", refuse)
        out_dir = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            script.main(["--max-coord", "3", "--max-k", "100000000",
                         "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "--max-coord 3 and --max-k 100000000" in out.err
        assert out.out == "" and not out_dir.exists()


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

    @pytest.mark.parametrize("blocked", ["parent is a file",
                                         "path is a directory"])
    def test_unusable_out_exits_2_before_the_table(self, tmp_path, capsys,
                                                   monkeypatch, blocked):
        script = self.script()

        def refuse(*args):
            raise AssertionError("the table was built before --out was checked")
        monkeypatch.setattr(script, "rows_for", refuse)
        if blocked == "parent is a file":
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "t.csv"
        else:
            out = tmp_path / "t.csv"
            out.mkdir()
        with pytest.raises(SystemExit) as exc:
            script.main(["--rank", "1", "--max-coord", "1", "--max-k", "2",
                         "--out", str(out)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "--out" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("rank,max_coord,max_k", [
        ("1", "30", "10"), ("1", "15", "10"), ("20", "1", "2"),
        ("1000", "1", "2")])
    def test_grid_past_the_guard_exits_2_before_any_fiber(
            self, tmp_path, capsys, monkeypatch, rank, max_coord, max_k):
        # (15,) at k = 10 has C(24, 9) = 1307504 ordered tuples, and
        # (1,) * 20 at k = 2 has 2**20; each is the largest of its grid.
        # The check multiplies per-coordinate factors, so a rank of 1000
        # builds no long weight
        script = self.script()

        def refuse(*args, **kwargs):
            raise AssertionError("a fiber was built past the guard")
        monkeypatch.setattr(script, "build_poset", refuse)
        monkeypatch.setattr(script, "count_tuples", refuse)
        out = tmp_path / "d" / "t.csv"
        with pytest.raises(SystemExit) as exc:
            script.main(["--rank", rank, "--max-coord", max_coord,
                         "--max-k", max_k, "--out", str(out)])
        assert exc.value.code == 2
        got = capsys.readouterr()
        assert got.out == "" and not out.parent.exists()
        assert (f"--rank {rank}, --max-coord {max_coord} and --max-k "
                f"{max_k} give a fiber of more than 1000000 ordered "
                "tuples") in got.err

    @pytest.mark.parametrize("rank,max_coord,max_k", [
        ("1", "14", "10"), ("19", "1", "2")])
    def test_grid_at_the_guard_reaches_the_table(self, monkeypatch, rank,
                                                 max_coord, max_k):
        # C(23, 9) = 817190 and 2**19 ordered tuples: within the guard
        script = self.script()

        class Reached(Exception):
            pass

        def reached(cfg):
            raise Reached
        monkeypatch.setattr(script, "rows_for", reached)
        with pytest.raises(Reached):
            script.main(["--rank", rank, "--max-coord", max_coord,
                         "--max-k", max_k])

    def test_small_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert self.script().main(["--rank", "1", "--max-coord", "2",
                                   "--max-k", "2", "--out", str(out)]) == 0
        assert "3 fibers; closed form mismatches at k=2: 0" in \
            capsys.readouterr().out
        assert out.read_text().splitlines() == [
            "lambda,tuples_k2,classes_k2,closed_form_k2",
            "0,1,1,1", "1,2,1,1", "2,3,2,2"]


class TestBenchLayersScript:
    @staticmethod
    def script():
        return load_script("bench_layers")

    def test_one_pass_writes_every_layer(self, tmp_path, capsys):
        script = self.script()
        assert script.main(["--label", "smoke", "--repeat", "1",
                            "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert payload["label"] == "smoke" and payload["repeat"] == 1
        assert payload["ref_probe_s"] == script.REF_PROBE_S
        assert set(payload["provenance"]) == {
            "git_commit", "src_differs_from_commit", "python", "nproc",
            "src_lines"}
        assert payload["provenance"]["src_lines"] > 0
        fibers = payload["fibers"]
        assert set(fibers) == set(script.FIBERS) | set(script.OTHER_FIBERS)
        assert {name for name, fiber in fibers.items()
                if fiber["perfbench"]} == set(script.FIBERS)
        assert (fibers["ones_k2"]["lambda"], fibers["ones_k2"]["k"]) == \
            ([1] * 7, 2)
        layers = {"build_poset", "_below", "cover_rows", "json_chunks",
                  "dot_chunks"}
        for name, fiber in fibers.items():
            want = layers | {"frames", "decisions", "covers_text",
                             "cover_edges"} if fiber["k"] == 2 else layers
            assert set(fiber["seconds_min"]) == want, name
            assert all(s >= 0 for s in fiber["seconds_min"].values())
            # the best times, scaled by the reference over the best probe
            assert fiber["probe_s"] > 0
            factor = script.REF_PROBE_S / fiber["probe_s"]
            assert fiber["seconds_scaled_min"] == {
                layer: pytest.approx(s * factor, rel=1e-3, abs=2e-6)
                for layer, s in fiber["seconds_min"].items()}, name
            poset = build_poset(Weight(tuple(fiber["lambda"])), fiber["k"])
            assert (fiber["classes"], fiber["covers"]) == \
                (len(poset), len(poset.hasse_edges))
            assert (fiber["json_chars"], fiber["dot_chars"]) == \
                (len(poset.json_text()), len(poset.to_dot()))
        k3 = fibers["poset_k3"]
        assert (k3["classes"], k3["covers"]) == (3675, 27173)
        assert 0 < k3["cover_rows_peak_bytes"] < k3["below_bytes"]
        # the bytes the decision list keeps, at k = 2 only
        assert [name for name, fiber in fibers.items()
                if "cover_decisions_bytes" in fiber] == ["covers_k2", "ones_k2"]
        assert fibers["covers_k2"]["cover_decisions_bytes"] > 0
        # the sweep workload in process, scaled by the same probe
        verify = payload["verify"]
        assert (verify["max_coord"], verify["max_k"]) == (5, 4)
        assert set(verify["seconds_min"]) == {
            "run_sweep", "report_chunks", "report_json_dumps"}
        assert all(s > 0 for s in verify["seconds_min"].values())
        factor = script.REF_PROBE_S / verify["probe_s"]
        assert verify["seconds_scaled_min"] == {
            name: pytest.approx(s * factor, rel=1e-3, abs=2e-6)
            for name, s in verify["seconds_min"].items()}
        cfg = SweepConfig(max_coord=5, max_k=4)
        rows = cli.run_sweep(cfg)
        assert verify["checks"] == len(rows) == 1264
        assert verify["report_chars"] == len(json.dumps(
            cli.report_payload(cfg, rows), sort_keys=True, indent=2)) + 1
        # one fresh interpreter per pass times the package import
        imports = payload["import"]
        assert imports["children"] == 1
        assert 0 < imports["import_s_min"] == imports["import_s_median"]
        assert "wrote" in capsys.readouterr().out

    def test_provenance_reads_the_checkout_of_the_timed_package(
            self, tmp_path, monkeypatch):
        # a package imported from another checkout, as a parent tree timed
        # through PYTHONPATH=<parent>/src is, records that checkout's
        # commit, status and line count, not the script's
        script = self.script()
        import weyl_order
        assert script.PACKAGE == Path(weyl_order.__file__).resolve().parent
        package = tmp_path / "src" / "weyl_order"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("a = 1\nb = 2\n")

        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                            *args], cwd=tmp_path, check=True,
                           capture_output=True)
        try:
            git("init", "-q")
            git("add", "src")
            git("commit", "-q", "-m", "one")
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("no usable git")
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                              capture_output=True, text=True).stdout.strip()
        monkeypatch.setattr(script, "PACKAGE", package)
        found = script.provenance()
        assert (found["git_commit"], found["src_differs_from_commit"],
                found["src_lines"]) == (head, False, 2)
        (package / "more.py").write_text("c = 3\n")
        found = script.provenance()
        assert (found["git_commit"], found["src_differs_from_commit"],
                found["src_lines"]) == (head, True, 3)

    @pytest.mark.parametrize("argv,needle", [
        (("--label", "a/b"), "--label"),
        (("--label", ""), "--label"),
        (("--label", "x", "--repeat", "0"), "--repeat"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            self.script().main(list(argv) + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unusable_out_dir_exits_2_before_timing(self, tmp_path, capsys,
                                                    monkeypatch):
        script = self.script()

        def refuse(*args):
            raise AssertionError("a fiber was timed before --out-dir was checked")
        monkeypatch.setattr(script, "measure_fiber", refuse)
        (tmp_path / "file").write_text("")
        (tmp_path / "BENCH_x.json").mkdir()
        for out_dir in (tmp_path / "file", tmp_path / "file" / "d", tmp_path):
            with pytest.raises(SystemExit) as exc:
                script.main(["--label", "x", "--out-dir", str(out_dir)])
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert "--out-dir" in out.err and out.out == ""
