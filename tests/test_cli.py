"""Command-line interface: reports, determinism, exit codes."""

import atexit
import gc
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import cvol.cli as cli
from cvol.cli import main, parse_args

import oracles

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: the command line of the benchmark's child process (``perfbench/run.py``)
CHILD_MAIN = "import sys; from cvol.cli import main; sys.exit(main())"


def call_main(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli(argv, prelude=""):
    """``cvol argv`` in a fresh interpreter, launched as the benchmark
    launches it, with ``prelude`` (Python source) run before
    ``CHILD_MAIN``; stdout and stderr come back through pipes."""
    return subprocess.run(
        [sys.executable, "-c", prelude + CHILD_MAIN, *map(str, argv)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def at_exit_print(expression):
    """A ``run_cli`` prelude that prints ``expression`` to stderr when the
    interpreter exits.  Its callback is registered before ``cvol.cli`` is
    imported, so it runs after every callback that ``cvol.cli`` registers."""
    return ("import atexit, gc, sys\n"
            f"atexit.register(lambda: print({expression}, file=sys.stderr))\n")


#: the modules ``cvol`` loads besides the package
CVOL_MODULES = {"cli", "errors", "flattening", "geometry", "gluing",
                "intlinalg", "params", "polylog", "triangulation"}

#: a ``run_cli`` prelude that prints as JSON to stderr at exit: the loaded
#: ``cvol`` submodules, the code that ``cvol`` does not run (what only
#: ``homology``, ``flatten`` or ``verify`` runs, and the functions of one
#: value) that one of them defines (by ``__module__``), and their classes
#: built by ``typing.NamedTuple``
MODULE_REPORT = """\
import atexit, json, sys, typing

def _module_report():
    loaded = {n: m for n, m in sys.modules.items() if n.startswith("cvol.")}
    names = ("AbelianGroup", "_dense_smith_factors", "_prune_kernel",
             "bloch_wigner", "check_branches", "check_mode", "dilog",
             "gf2_rank", "lifted_rogers", "lifted_rogers_raw", "rogers",
             "smith_invariant_factors", "unflatten")
    print(json.dumps({
        "loaded": sorted(loaded),
        "defined": sorted(
            f"{n}.{a}" for n, m in loaded.items() for a in names
            if getattr(getattr(m, a, None), "__module__", None) == n),
        "typed": sorted(
            f"{n}.{k}" for n, m in loaded.items() for k, c in vars(m).items()
            if isinstance(c, type)
            and typing.NamedTuple in c.__dict__.get("__orig_bases__", ())),
    }), file=sys.stderr)

atexit.register(_module_report)
"""


class TestCvolCommand:
    def test_json_report(self, fig8_path, capsys):
        code, out, _ = call_main(
            ["--format", "json", "cvol", str(fig8_path)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["volume"] == pytest.approx(2.029883212819307, abs=1e-9)
        assert min(
            report["cs_mod_pi2"], math.pi**2 - report["cs_mod_pi2"]
        ) == pytest.approx(0.0, abs=1e-9)
        assert set(report) == {
            "volume", "cs_mod_pi2", "flattenings", "shapes", "residuals",
            "mode", "warnings",
        }
        assert report["mode"] == "ep"
        assert report["warnings"] == []
        assert len(report["flattenings"]) == 2
        assert report["residuals"]["defect_even"] is True

    def test_byte_identical_reruns(self, fig8_path, capsys):
        _, out1, _ = call_main(["--format", "json", "cvol", str(fig8_path)], capsys)
        _, out2, _ = call_main(["--format", "json", "cvol", str(fig8_path)], capsys)
        assert out1 == out2

    def test_no_cusp_paths_degraded_mode(self, fig8_doc, tmp_path, capsys):
        doc = dict(fig8_doc)
        doc.pop("cusp_paths")
        path = tmp_path / "nocusp.json"
        path.write_text(json.dumps(doc))
        code, out, _ = call_main(["--format", "json", "cvol", str(path)],
                                 capsys)
        assert code == 0
        report = json.loads(out)
        assert report["volume"] == pytest.approx(2.029883212819307, abs=1e-9)
        assert any("edge-flattened only" in w for w in report["warnings"])

    def test_malformed_file_nonzero_exit(self, tmp_path, capsys):
        # a schema error, invalid JSON, bytes that are not UTF-8 and arrays
        # nested past the decoder's recursion limit: each a typed error
        cases = [
            (b'{"name": "x"}', "missing keys ['tetrahedra']"),
            (b'{"name": ', "{} is not valid JSON"),
            (b'{"name": "\xff\xfe"}', "{} is not UTF-8 text"),
            (b"[" * 100000, "{} nests too deeply to parse"),
        ]
        for k, (content, message) in enumerate(cases):
            path = tmp_path / f"bad{k}.json"
            path.write_bytes(content)
            code, out, err = call_main(["cvol", str(path)], capsys)
            assert code == 2
            assert out == ""
            assert "error at stage parse" in err
            assert message.format(path) in err

    def test_path_leaving_vertex_link_fails_at_parse(
        self, fig8_doc, tmp_path, capsys
    ):
        # linked and closed, but the vertex it tracks comes back as another
        doc = dict(fig8_doc)
        doc["cusp_paths"] = [[
            {"tet": 0, "enter_face": 0, "exit_face": 1},
            {"tet": 1, "enter_face": 1, "exit_face": 0},
        ]]
        path = tmp_path / "off_link.json"
        path.write_text(json.dumps(doc))
        code, out, err = call_main(["--format", "json", "cvol", str(path)],
                                   capsys)
        assert code == 2
        assert out == ""
        assert "error at stage parse" in err
        assert "vertex link" in err

    def test_unlinked_cusp_path_fails_at_parse(
        self, fig8_doc, tmp_path, capsys
    ):
        # the fig8 meridian with its second step moved to tetrahedron 0
        doc = dict(fig8_doc)
        doc["cusp_paths"] = [[
            {"tet": 0, "enter_face": 1, "exit_face": 3},
            {"tet": 0, "enter_face": 2, "exit_face": 1},
        ]]
        path = tmp_path / "unlinked.json"
        path.write_text(json.dumps(doc))
        code, out, err = call_main(["--format", "json", "cvol", str(path)],
                                   capsys)
        assert code == 2
        assert out == ""
        assert "error at stage parse" in err
        assert "path steps 0 -> 1 are not linked by a gluing" in err


    @pytest.mark.parametrize(
        "value", ["NaN", "Infinity", "-Infinity", "9" * 401],
        ids=["nan", "inf", "-inf", "401-digit"],
    )
    def test_non_finite_shape_fails_at_parse(self, fig8_doc, tmp_path,
                                             capsys, value):
        doc = dict(fig8_doc, shapes=[[0.5, 0.8], [0.5, 0.9]])
        path = tmp_path / "bad_shape.json"
        path.write_text(json.dumps(doc).replace("0.9", value))
        code, out, err = call_main(["--format", "json", "cvol", str(path)],
                                   capsys)
        assert code == 2
        assert out == ""
        assert "error at stage parse" in err

    def test_shapes_at_infinity_fail_at_solve_shapes(self, tmp_path, capsys):
        # Newton drifts to both shapes near 2e12 i: z stays off the real
        # line while z' = 1/(1 - z) and z'' = 1 - 1/z flatten
        gluings = [{"tet": 1, "perm": [0, 1, 3, 2]},
                   {"tet": 1, "perm": [2, 1, 0, 3]},
                   {"tet": 1, "perm": [3, 1, 2, 0]},
                   {"tet": 1, "perm": [0, 2, 1, 3]}]
        doc = {"name": "s", "tetrahedra": [
            {"gluings": gluings},
            {"gluings": [dict(g, tet=0) for g in gluings]},
        ]}
        path = tmp_path / "at_infinity.json"
        path.write_text(json.dumps(doc))
        code, out, err = call_main(["--format", "json", "cvol", str(path)],
                                   capsys)
        assert code == 2
        assert out == ""
        assert "error at stage solve_shapes" in err
        # the line search stalls behind a flat trial, which names the cause
        assert "Newton iterate: shape 0 = " in err and " is flat " in err


#: the first gluing of two tetrahedra, in ``oracles.t2_documents`` order, of
#: each outcome class that ``main`` gives over all 136 080 of them
T2_OUTCOMES = json.loads((FIXTURES / "t2_outcomes.json").read_text())
#: outcome class -> the stage and message part of the refusal, or None and
#: the volume that ``cvol`` prints, as an edge-only result, on exit 0
T2_CONTRACTS = {
    "sphere link": ("parse", "vertex link 0 is not a torus "
                             "(Euler characteristic 2)"),
    "non-orientable": ("parse", "complex is not orientable"),
    "line search stalled": ("solve_shapes", "line search stalled"),
    "genus-2 link": ("parse", "vertex link 0 is not a torus "
                              "(Euler characteristic -2)"),
    "flat shape": ("solve_shapes", " is flat "),
    "sphere link at vertex 1": ("parse", "vertex link 1 is not a torus "
                                         "(Euler characteristic 2)"),
    "volume 2.029883": (None, 2.029883),
    "incomplete volume": (None, 1.935624),
}


class TestT2Outcomes:
    def test_fixture_holds_the_enumerated_gluings(self):
        wanted = {entry["index"]: entry for entry in T2_OUTCOMES}
        assert {entry["outcome"] for entry in T2_OUTCOMES} == set(T2_CONTRACTS)
        count = 0
        for index, doc in enumerate(oracles.t2_documents()):
            if index in wanted:
                assert doc["tetrahedra"] == wanted[index]["tetrahedra"]
            count += 1
        assert count == 136_080

    @pytest.mark.parametrize("entry", T2_OUTCOMES,
                             ids=[e["outcome"] for e in T2_OUTCOMES])
    def test_each_class_keeps_its_contract(self, entry, tmp_path, capsys):
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(
            {"name": entry["outcome"], "tetrahedra": entry["tetrahedra"]}))
        stage, expected = T2_CONTRACTS[entry["outcome"]]
        for command in ("cvol", "flatten", "homology", "edges"):
            code, out, err = call_main(["--format", "json", command,
                                        str(path)], capsys)
            if stage == "parse" or (stage and command in ("cvol", "flatten")):
                assert (code, out) == (2, "")
                assert f"error at stage {stage}: " in err
                assert expected in err
                continue
            assert (code, err) == (0, "")
            if stage is None and command == "cvol":
                report = json.loads(out)
                assert round(report["volume"], 6) == expected
                residuals = report["residuals"]
                assert max(residuals["gluing_max"],
                           residuals["edge_flattening_max"],
                           residuals["path_flattening_max"]) < 1e-9
                assert any(w.startswith("edge-flattened only")
                           for w in report["warnings"])


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = call_main(
            ["--format", "json", "verify", "--count", "20"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_residual"] < 1e-9
        names = {s["name"] for s in report["suites"]}
        assert {"five_term_rogers", "five_term_nu", "transfer",
                "super_transfer", "three_equations", "homo", "one_minus_x",
                "chi", "chi_hat", "kappa_epsilon", "edge_kernel",
                "cycle_relation"} <= names

    def test_seed_determinism(self, capsys):
        args = ["--format", "json", "--seed", "5", "verify", "--count", "10"]
        _, out1, _ = call_main(args, capsys)
        _, out2, _ = call_main(args, capsys)
        assert out1 == out2

    def test_count_zero_vacuous_pass(self, capsys):
        code, out, _ = call_main(
            ["--format", "json", "verify", "--count", "0"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert [s["count"] for s in report["suites"]] == [0] * len(
            report["suites"]
        )

    def test_nan_residual_fails_closed(self):
        from cvol.verify import SuiteResult

        result = SuiteResult("x", 1)
        result.record(float("nan"), 1e-9, z=0.5 + 0.5j, p=1)
        assert result.passed is False
        assert result.max_residual == 0.0
        [failure] = result.failures
        assert list(failure) == ["z", "p", "residual"]
        assert failure["z"] == "(0.5+0.5j)" and failure["p"] == 1
        assert math.isnan(failure["residual"])

    def test_tight_tolerance_reports_instead_of_aborting(self, capsys):
        # at 1e-15 rounding alone makes Rogers comparisons miss, the cycle
        # relation's among them; the instances fail and the run goes on
        code, out, err = call_main(
            ["--format", "json", "--tolerance", "1e-15", "verify", "--count",
             "50"], capsys
        )
        assert code == 1
        assert err == ""
        report = json.loads(out)
        assert report["passed"] is False
        assert len(report["suites"]) == 14
        [cycle] = [s for s in report["suites"] if s["name"] == "cycle_relation"]
        assert cycle["passed"] is False and cycle["failures"]

    def test_tight_tolerance_keeps_cycle_preconditions(self, monkeypatch):
        # the edge sum is held to a rounding bound, not to --tolerance: at
        # 1e-15 it reads 1.8e-15 on instances 23, 25, 33 and 39 of seed 0,
        # and no instance is refused.  Every check is kept, not only the
        # first five failures a report shows
        from cvol import verify

        checks = []
        monkeypatch.setattr(
            verify.SuiteResult, "record_exact",
            lambda self, ok, **instance: checks.append(
                (self.name, ok, instance)))
        verify.run_all(count=50, seed=0, tol=1e-15)
        cycle = [(ok, i) for name, ok, i in checks if name == "cycle_relation"]
        assert len(cycle) == 50
        assert not all(ok for ok, _ in cycle)
        assert not [i for _, i in cycle if "error" in i]

    def test_cycle_precondition_error_is_a_counterexample(self, monkeypatch):
        import random

        from cvol import verify
        from cvol.errors import NonIntegralError

        def refuse(simplices, base, tol):
            raise NonIntegralError("edge sum is 2e-15j, not 0")

        monkeypatch.setattr(verify, "cycle_relation_check", refuse)
        result = verify.suite_cycle_relation(3, random.Random(0), 1e-9)
        assert result.passed is False
        assert result.failures == [
            {"n": 3, "error": "edge sum is 2e-15j, not 0"},
            {"n": 2, "error": "edge sum is 2e-15j, not 0"},
            {"n": 3, "error": "edge sum is 2e-15j, not 0"},
        ]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, "--tolerance", value)
            for value in ("inf", "-inf", "nan", "0", "-1e-9", "abc")
            for command in ("cvol", "flatten", "verify")
        ] + [
            (command, "--tolerance-newton", value)
            for value in ("inf", "nan", "0")
            for command in ("cvol", "flatten")
        ] + [
            ("verify", "--count", value) for value in ("-3", "1.5", "many")
        ] + [
            (command, "--max-iter", value)
            for value in ("0", "-5", "1.5", "many")
            for command in ("cvol", "flatten")
        ],
        ids=lambda item: str(item).lstrip("-"),
    )
    def test_bad_option_value_refused(self, fig8_path, capsys, command,
                                      flag, value):
        # a non-finite tolerance passes every check, a negative count
        # reports a pass and Newton cannot run fewer than one iteration,
        # so all are refused before anything runs
        args = [command] if command == "verify" else [command, str(fig8_path)]
        option = [f"{flag}={value}"]
        args = [*args, *option] if flag == "--count" else [*option, *args]
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", *args])
        captured = capsys.readouterr()
        expected = {"--count": "an integer >= 0",
                    "--max-iter": "an integer >= 1"}.get(
                        flag, "a finite number > 0")
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: expected {expected}, got {value!r}\n"
        )


#: what the argparse parser that ``parse_args`` replaced returned for every
#: command line: these defaults, updated by each accepted form's entries
PARSED_DEFAULTS = {"format": "text", "tolerance": 1e-09,
                   "tolerance_newton": 1e-12, "max_iter": 100, "seed": 0}
ACCEPTED_FORMS = [
    ("cvol F.json", dict(command="cvol", file="F.json", fn="cmd_cvol")),
    ("--format json cvol F.json",
     dict(format="json", command="cvol", file="F.json", fn="cmd_cvol")),
    ("--format=text homology F.json",
     dict(command="homology", file="F.json", fn="cmd_homology")),
    ("edges F.json", dict(command="edges", file="F.json", fn="cmd_edges")),
    ("--tolerance 1e-6 --tolerance-newton=1e-10 --max-iter 50 --seed 7 "
     "flatten F.json",
     dict(tolerance=1e-06, tolerance_newton=1e-10, max_iter=50, seed=7,
          command="flatten", file="F.json", fn="cmd_flatten")),
    ("--format json --format text --seed 1 --seed=2 edges F.json",
     dict(seed=2, command="edges", file="F.json", fn="cmd_edges")),
    ("--max-iter=1 --tolerance=1E3 cvol F.json",
     dict(tolerance=1000.0, max_iter=1, command="cvol", file="F.json",
          fn="cmd_cvol")),
    ("--seed -5 verify",
     dict(seed=-5, command="verify", count=100, fn="cmd_verify")),
    ("--seed +3 --seed=1_000 verify",
     dict(seed=1000, command="verify", count=100, fn="cmd_verify")),
    ("verify --count 0", dict(command="verify", count=0, fn="cmd_verify")),
    ("--format json --seed 4 verify --count=500",
     dict(format="json", seed=4, command="verify", count=500,
          fn="cmd_verify")),
    ("verify --count 3 --count 4",
     dict(command="verify", count=4, fn="cmd_verify")),
    ("cvol -", dict(command="cvol", file="-", fn="cmd_cvol")),
]

#: refused command lines -> the end of the ``cvol: error:`` line
REFUSED_FORMS = [
    ("", "the following arguments are required: command"),
    ("frob F.json", "argument command: invalid choice: 'frob' (choose from "
     "'cvol', 'verify', 'homology', 'edges', 'flatten')"),
    ("--bogus cvol F.json", "unrecognized arguments: --bogus"),
    ("-x cvol F.json", "unrecognized arguments: -x"),
    ("--form json cvol F.json", "unrecognized arguments: --form"),
    ("verify --co 5", "unrecognized arguments: --co"),
    ("--count 5 verify", "unrecognized arguments: --count"),
    ("cvol F.json --format json", "unrecognized arguments: --format"),
    ("verify --seed 3", "unrecognized arguments: --seed"),
    ("cvol --count 3 F.json", "unrecognized arguments: --count"),
    ("cvol", "the following arguments are required: file"),
    ("cvol a b", "unrecognized arguments: b"),
    ("verify x", "unrecognized arguments: x"),
    ("--format xml cvol F.json",
     "argument --format: expected json or text, got 'xml'"),
    ("--format", "argument --format: expected one argument"),
    ("verify --count", "argument --count: expected one argument"),
    ("--seed abc verify", "argument --seed: expected an integer, got 'abc'"),
    ("--seed= verify", "argument --seed: expected an integer, got ''"),
    ("--help=yes cvol F.json", "unrecognized arguments: --help=yes"),
]


class TestCommandLine:
    """``parse_args``: whole flags before the command, ``--count`` after
    ``verify``; help exits 0, anything else unreadable exits 2."""

    @pytest.mark.parametrize("argv,expected", ACCEPTED_FORMS,
                             ids=[argv for argv, _ in ACCEPTED_FORMS])
    def test_accepted_forms_parse_as_before(self, argv, expected):
        expected = {**PARSED_DEFAULTS, **expected,
                    "fn": getattr(cli, expected["fn"])}
        assert vars(parse_args(argv.split())) == expected

    @pytest.mark.parametrize("argv,message", REFUSED_FORMS,
                             ids=[argv or "empty"
                                  for argv, _ in REFUSED_FORMS])
    def test_refused_forms_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: cvol ")
        assert captured.err.splitlines()[-1] == f"cvol: error: {message}"

    @pytest.mark.parametrize(
        "argv", ["-h", "--help", "verify -h", "cvol --help",
                 "--format json cvol F.json -h",
                 "--seed 3 verify --count 2 -h"])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.err == ""
        assert captured.out.startswith("usage: cvol ")
        for flag in ["--count", *cli._GLOBAL_FLAGS]:
            assert flag in captured.out
        commands = [line.split()[0] for line in
                    captured.out.split("commands:\n", 1)[1].split("\n\n")[0]
                    .splitlines()]
        assert commands == ["cvol", "verify", "homology", "edges", "flatten"]

    def test_main_reads_sys_argv(self, fig8_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv",
                            ["cvol", "--format", "json", "edges",
                             str(fig8_path)])
        code, out, err = call_main(None, capsys)
        assert (code, err) == (0, "")
        assert out == (FIXTURES / "golden" / "edges-fig8.json").read_text()

    def test_no_command_loads_an_option_parser(self, fig8_path):
        # the site hook of some environments loads stdlib modules into
        # every interpreter, so a bare one is the baseline
        loaded = at_exit_print("[m for m in ('argparse', 'gettext', "
                               "'locale') if m in sys.modules]")
        bare = subprocess.run(
            [sys.executable, "-c", loaded + "pass"], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert bare.returncode == 0, bare.stderr
        for args, code in ((["cvol", fig8_path], 0),
                           (["flatten", fig8_path], 0),
                           (["homology", fig8_path], 0),
                           (["edges", fig8_path], 0),
                           (["verify", "--count", "2"], 0),
                           (["--help"], 0), (["--bogus"], 2)):
            result = run_cli(["--format", "json", *args], loaded)
            assert result.returncode == code, result.stderr
            last = result.stderr.splitlines()[-1]
            assert last == bare.stderr.strip(), args


class TestOtherCommands:
    def test_homology(self, fig8_path, capsys):
        code, out, _ = call_main(
            ["--format", "json", "homology", str(fig8_path)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["homology"]["H5"] == "0"
        assert report["homology"]["H4"] == "Z/2"
        assert report["homology"]["H1"] == "Z/2"

    def test_edges(self, fig8_path, capsys):
        code, out, _ = call_main(
            ["--format", "json", "edges", str(fig8_path)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert [e["valence"] for e in report["edge_classes"]] == [6, 6]

    def test_flatten(self, fig8_path, capsys):
        code, out, _ = call_main(
            ["--format", "json", "flatten", str(fig8_path)], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["flattenings"]) == 2
        assert max(report["edge_residuals"]) < 1e-12
        assert report["path_parities"] == [0, 0]
        assert all(d % 2 == 0 for d in report["defect"])

    def test_entry_point_installed(self, fig8_path):
        result = subprocess.run(
            [sys.executable, "-m", "cvol.cli", "--format", "json",
             "edges", str(fig8_path)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0

    def test_import_does_not_load_numpy(self, fig8_path):
        # no command needs numpy: Newton's step is sparse pure Python.
        # fractions and decimal are not needed at all: the dilogarithm's
        # Bernoulli coefficients are float constants.  The records are
        # named tuples and slotted classes, so neither dataclasses nor the
        # inspect machinery it imports is loaded
        modules = "numpy fractions decimal dataclasses inspect"
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, cvol.cli; "
             "print([m for m in sys.argv[1].split() if m in sys.modules])",
             modules],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
        # a full run of every command, Newton included, leaves them all
        # unloaded at exit
        loaded = at_exit_print(
            f"[m for m in {modules.split()!r} if m in sys.modules]")
        for args in (["cvol", str(fig8_path)], ["flatten", str(fig8_path)],
                     ["homology", str(fig8_path)], ["edges", str(fig8_path)],
                     ["verify", "--count", "2"]):
            result = run_cli(["--format", "json", *args], loaded)
            assert result.returncode == 0, result.stderr
            report = json.loads(result.stdout)
            if args[0] == "cvol":
                assert report["volume"] == pytest.approx(
                    2.029883212819307, abs=1e-9
                )
            assert result.stderr.strip() == "[]", args

    @pytest.mark.parametrize(
        "command,fixture,unloaded",
        [("homology", "fig8_cover8.json", ("bloch", "wedge", "gluing",
                                           "verify", "flattening", "polylog")),
         ("cvol", "fig8.json", ("bloch", "wedge", "verify", "jcomplex")),
         ("flatten", "fig8.json", ("bloch", "wedge", "verify", "jcomplex")),
         ("edges", "fig8.json", ("flattening", "gluing", "polylog",
                                 "intlinalg", "bloch", "wedge", "verify",
                                 "jcomplex"))],
    )
    def test_command_loads_only_what_it_runs(self, command, fixture,
                                             unloaded):
        result = run_cli(
            ["--format", "json", command, FIXTURES / fixture],
            at_exit_print("[m for m in %r if f'cvol.{m}' in sys.modules]"
                          % (unloaded,)),
        )
        assert result.returncode == 0, result.stderr
        golden = FIXTURES / "golden" / f"{command}-{fixture}"
        assert result.stdout == golden.read_text()
        assert result.stderr.strip() == "[]"

    @pytest.mark.parametrize("args,modules,defined", [
        (["cvol", FIXTURES / "fig8.json"], CVOL_MODULES, []),
        (["flatten", FIXTURES / "fig8.json"], CVOL_MODULES | {"pruning"},
         ["pruning._prune_kernel"]),
        (["homology", FIXTURES / "fig8.json"],
         {"cli", "errors", "geometry", "intlinalg", "jcomplex", "params",
          "triangulation"},
         ["jcomplex.AbelianGroup", "jcomplex._dense_smith_factors",
          "jcomplex.gf2_rank", "jcomplex.smith_invariant_factors"]),
        (["edges", FIXTURES / "fig8.json"],
         {"cli", "errors", "geometry", "params", "triangulation"}, []),
        # with no instance, so that no suite loads integer linear algebra
        (["verify", "--count", "0"],
         {"bloch", "cli", "errors", "geometry", "params", "polylog",
          "verify", "wedge"},
         [f"bloch.{name}" for name in (
             "bloch_wigner", "check_branches", "check_mode", "dilog",
             "lifted_rogers", "lifted_rogers_raw", "rogers", "unflatten")]),
    ], ids=["cvol", "flatten", "homology", "edges", "verify"])
    def test_command_compiles_only_its_own_code(self, args, modules,
                                                defined):
        # the code only homology runs lives in jcomplex, flatten's pruning
        # in pruning, the functions of one value in bloch, and no record is
        # built by typing.NamedTuple
        result = run_cli(["--format", "json", *args], MODULE_REPORT)
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stderr)
        assert report == {"loaded": sorted(f"cvol.{m}" for m in modules),
                          "defined": [f"cvol.{d}" for d in defined],
                          "typed": []}

    @pytest.mark.parametrize("command",
                             ["cvol", "flatten", "homology", "edges"])
    def test_each_condition_becomes_rows_once(self, command, monkeypatch,
                                              capsys):
        # fig8_cover8 has 16 edges of valence 6 and 2 cusp paths: the
        # condition table, built on first read, is the one multi-term
        # conversion of each; homology reads only the edge conditions and
        # edges none; only flatten's pruning walk converts one-term arcs
        import importlib

        import cvol.geometry as geometry
        from cvol.cli import _load

        path = str(FIXTURES / "fig8_cover8.json")
        comb = _load(path).combinatorics
        edge_tables = [e.terms for e in comb.edge_rows]
        cusp_tables = [c.terms for c in comb.cusp_rows]
        assert (len(edge_tables), len(cusp_tables)) == (16, 2)
        tables = {"homology": edge_tables, "edges": []}.get(
            command, edge_tables + cusp_tables)
        original, calls = geometry.pass_rows, []

        def counted(terms):
            calls.append(terms)
            return original(terms)

        for name in sorted(PACKAGE_MODULES | {"pruning"}):
            module = importlib.import_module(f"cvol.{name}")
            if getattr(module, "pass_rows", None) is original:
                monkeypatch.setattr(module, "pass_rows", counted)
        code, out, _ = call_main(["--format", "json", command, path], capsys)
        assert code == 0
        golden = FIXTURES / "golden" / f"{command}-fig8_cover8.json"
        assert out == golden.read_text()
        assert [terms for terms in calls if len(terms) > 1] == tables
        one_term = any(len(terms) == 1 for terms in calls)
        assert one_term == (command == "flatten")

    def test_verify_loads_no_triangulation_code(self):
        result = run_cli(
            ["--format", "json", "--seed", "0", "verify", "--count", "50"],
            at_exit_print("[m for m in ('triangulation', 'flattening', "
                          "'gluing') if f'cvol.{m}' in sys.modules]"),
        )
        assert result.returncode == 0, result.stderr
        golden = FIXTURES / "golden" / "verify-seed0.json"
        assert result.stdout == golden.read_text()
        assert result.stderr.strip() == "[]"

    def test_only_the_edge_kernel_suite_loads_integer_linear_algebra(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import random, sys, cvol.verify as v; "
             "print('cvol.intlinalg' in sys.modules); "
             "v.suite_edge_kernel(0, random.Random(0), 1e-9); "
             "print('cvol.intlinalg' in sys.modules); "
             "v.suite_edge_kernel(1, random.Random(0), 1e-9); "
             "print('cvol.intlinalg' in sys.modules)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0, result.stderr
        # ``verify --count 0`` has no edge-kernel instance to check
        assert result.stdout.split() == ["False", "False", "True"]


#: ``cvol.__all__`` when the package imported every submodule eagerly
PACKAGE_NAMES = {
    "CVolError", "Combinatorics", "ConvergenceError", "CycleSimplex",
    "DegenerateGeometryError", "DomainError", "EBElement", "EdgeClass",
    "ExtendedParam", "FiveTermTuple", "Flattening", "FlatteningAssignment",
    "GluingSystem", "IdealSimplexShape", "InconsistentSystemError",
    "JComplex", "ModPiSquared", "NonIntegralError", "NormalPath", "PathStep",
    "ShapeSolution", "SymbolMatchError", "SymbolVector", "Triangulation",
    "TriangulationError", "WedgeExpr", "bloch", "bloch_wigner",
    "build_j_complex", "chi", "chi_hat", "combine", "complex_volume",
    "cycle_relation_check", "dilog", "edge_classes", "edge_loop",
    "epsilon_parity", "errors",
    "five_point_edge_conditions", "five_point_shapes", "five_term_instance",
    "flatten", "flattening", "fundamental_element", "generator", "geometry",
    "gluing", "gluing_equations", "homology_of_j", "intlinalg", "is_zero",
    "jcomplex", "kappa_element", "lifted_rogers", "nu_symbolic",
    "orientation_signs", "params",
    "parse_triangulation",
    "path_passes", "polylog", "principal_log", "r_of_element", "reduce_mod",
    "rogers", "solve_flattenings", "solve_shapes", "super_transfer_rhs",
    "sym", "transfer_instance", "triangulation", "unflatten", "wedge",
}

#: the names in ``PACKAGE_NAMES`` that are submodules; ``wedge`` is the
#: function ``cvol.wedge.wedge``
PACKAGE_MODULES = {"bloch", "errors", "flattening", "geometry", "gluing",
                   "intlinalg", "jcomplex", "params", "polylog",
                   "triangulation"}

RESOLVE_NAMES = """
import json, sys, types
import cvol
modules = set(sys.argv[2].split())
if sys.argv[1] == "submodules first":
    import cvol.verify  # loads every module, wedge and bloch included
names = sorted(cvol.__all__, reverse=sys.argv[1] == "reversed")
wrong = []
for name in names:
    value = getattr(cvol, name)
    if name in modules:
        ok = value is sys.modules[f"cvol.{name}"]
    elif isinstance(value, types.ModuleType):
        ok = False
    else:
        home = sys.modules[value.__module__]
        ok = (value.__module__.startswith("cvol.")
              and getattr(home, name) is value)
    if not ok:
        wrong.append(name)
from cvol import *
print(json.dumps({"all": cvol.__all__, "wrong": wrong,
                  "star": sorted(n for n in cvol.__all__ if n in globals())}))
"""


class TestPackageSurface:
    """``import cvol`` resolves its names on first use; the names and what
    they resolve to are those of the eagerly importing package."""

    @pytest.mark.parametrize("order",
                             ["sorted", "reversed", "submodules first"])
    def test_names_resolve_to_their_modules(self, order):
        result = subprocess.run(
            [sys.executable, "-c", RESOLVE_NAMES, order,
             " ".join(PACKAGE_MODULES)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert set(report["all"]) == PACKAGE_NAMES
        assert report["wrong"] == []
        assert set(report["star"]) == PACKAGE_NAMES

    def test_readme_library_surface_runs(self):
        root = SRC.parent
        readme = (root / "README.md").read_text()
        section = readme.split("## Library surface", 1)[1]
        snippet = section.split("```python", 1)[1].split("```", 1)[0]
        result = subprocess.run(
            [sys.executable, "-c",
             snippet + "\nprint(vol, cs, value.value.imag)"],
            capture_output=True, text=True, cwd=root,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0, result.stderr
        vol, cs, imag = map(float, result.stdout.split())
        assert vol == imag == pytest.approx(2.029883212819307, abs=1e-12)
        assert cs == 0.0


class TestGoldenOutput:
    """CLI JSON bytes on the fixtures against recorded golden files; a
    deliberate change of output updates them and says why in CHANGES.md."""

    @pytest.mark.parametrize(
        "command,fixture",
        [(command, fixture)
         for fixture in ("fig8", "fig8_cover3", "fig8_cover8", "fig8_cover32")
         for command in ("cvol", "flatten", "edges", "homology")],
    )
    def test_bytes_match(self, command, fixture, capsys):
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        code, out, _ = call_main(
            ["--format", "json", command, str(fixtures / f"{fixture}.json")],
            capsys,
        )
        assert code == 0
        golden = fixtures / "golden" / f"{command}-{fixture}.json"
        assert out == golden.read_text()

    def test_verify_bytes_match(self, capsys):
        code, out, _ = call_main(
            ["--format", "json", "--seed", "0", "verify", "--count", "50"],
            capsys,
        )
        assert code == 0
        golden = pathlib.Path(__file__).parent / "fixtures" / "golden"
        assert out == (golden / "verify-seed0.json").read_text()

    def test_combinatorics_derived_once(self, fig8_path, monkeypatch, capsys):
        import cvol.triangulation as triangulation

        calls = {"edge_classes": 0, "orientation_signs": 0, "path_passes": 0}
        for name in calls:
            original = getattr(triangulation, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(triangulation, name, counted)
        code, _, _ = call_main(["cvol", str(fig8_path)], capsys)
        assert code == 0
        # one path_passes per cusp path: the terms are derived at parse
        assert calls == {"edge_classes": 1, "orientation_signs": 1,
                         "path_passes": 2}

    def test_only_flatten_prunes(self, fig8_path, monkeypatch, capsys):
        import cvol.pruning as pruning

        calls = []
        original = pruning._prune_kernel

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pruning, "_prune_kernel", counted)
        code, _, _ = call_main(["cvol", str(fig8_path)], capsys)
        assert code == 0
        assert not calls
        code, out, _ = call_main(
            ["--format", "json", "flatten", str(fig8_path)], capsys)
        assert code == 0
        golden = pathlib.Path(__file__).parent / "fixtures" / "golden"
        assert out == (golden / "flatten-fig8.json").read_text()
        assert len(calls) == 1


class TestTextFormat:
    def test_default_text_output(self, fig8_path, capsys):
        code, out, _ = call_main(["cvol", str(fig8_path)], capsys)
        assert code == 0
        assert "volume: 2.029883212819307" in out
        assert "cs_mod_pi2:" in out


class TestExitHook:
    """``cvol.cli`` registers ``gc.freeze`` with ``atexit``: a ``cvol``
    process skips the shutdown collection, an in-process caller's heap is
    left alone while its interpreter runs."""

    def test_child_main_is_the_benchmarks(self):
        run_py = (SRC.parent / "perfbench" / "run.py").read_text()
        assert f'CHILD_MAIN = "{CHILD_MAIN}"' in run_py

    @pytest.mark.parametrize(
        "argv,code",
        [(["cvol", FIXTURES / "fig8.json"], 0),
         (["homology", FIXTURES / "fig8_cover8.json"], 0),
         (["verify", "--count", "0"], 0),
         (["cvol", FIXTURES / "missing.json"], 2)],
        ids=["cvol", "homology", "verify-count-0", "missing-file"],
    )
    def test_fresh_interpreter_freezes_the_heap_at_exit(self, argv, code):
        result = run_cli(argv, at_exit_print("gc.get_freeze_count()"))
        assert result.returncode == code, result.stderr
        frozen = int(result.stderr.splitlines()[-1])
        assert frozen > 0

    def test_in_process_main_freezes_nothing(self, fig8_path, capsys):
        frozen = gc.get_freeze_count()
        for _ in range(2):
            code, _, _ = call_main(["edges", str(fig8_path)], capsys)
            assert code == 0
            assert gc.get_freeze_count() == frozen

    def test_second_main_registers_no_second_freeze(self, fig8_path):
        # the prelude counts gc.freeze's calls and runs main once before
        # the child's own main; the heap is frozen once, at exit
        prelude = (
            "import atexit, gc, sys\n"
            "freeze, calls = gc.freeze, []\n"
            "gc.freeze = lambda: calls.append(freeze())\n"
            "atexit.register(lambda: print(len(calls), "
            "gc.get_freeze_count(), file=sys.stderr))\n"
            "from cvol.cli import main\n"
            f"main(['edges', {str(fig8_path)!r}])\n"
            "print(len(calls), gc.get_freeze_count(), file=sys.stderr)\n"
        )
        result = run_cli(["edges", fig8_path], prelude)
        assert result.returncode == 0, result.stderr
        during, at_exit = result.stderr.splitlines()
        assert during == "0 0"
        calls, frozen = map(int, at_exit.split())
        assert calls == 1
        assert frozen > 0

    def test_main_adds_no_exit_callback(self, fig8_path):
        # ``atexit._ncallbacks`` counts unregistered slots too, so an
        # unregister-then-register in ``main`` would grow it by one a call
        prelude = (
            "import atexit, sys\n"
            "from cvol.cli import main\n"
            "before = atexit._ncallbacks()\n"
            "for _ in range(3):\n"
            f"    main(['edges', {str(fig8_path)!r}])\n"
            "print(before, atexit._ncallbacks(), file=sys.stderr)\n"
        )
        result = run_cli(["edges", fig8_path], prelude)
        assert result.returncode == 0, result.stderr
        before, after = map(int, result.stderr.split())
        assert before == after


class TestCollectorPause:
    """``main`` pauses the cyclic collector while the command runs and
    leaves it as it found it; the pause is safe because the commands make
    no cyclic garbage."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_main_restores_the_collector(self, enabled, fig8_path,
                                         monkeypatch, capsys):
        import cvol.cli as cli

        seen = []
        original = cli.cmd_edges
        monkeypatch.setattr(
            cli, "cmd_edges",
            lambda args: seen.append(gc.isenabled()) or original(args))
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, _ = call_main(["edges", str(fig8_path)], capsys)
            assert (code, gc.isenabled()) == (0, enabled)
            code, _, err = call_main(
                ["edges", str(FIXTURES / "missing.json")], capsys)
            assert (code, gc.isenabled()) == (2, enabled)
            assert "cannot read" in err
        finally:
            gc.enable()
        assert seen == [False, False]

    @pytest.mark.parametrize(
        "argv",
        [["cvol", FIXTURES / "fig8_cover32.json"],
         ["homology", FIXTURES / "fig8_cover32.json"],
         ["--seed", "0", "verify", "--count", "500"]],
        ids=["cvol", "homology", "verify"],
    )
    def test_commands_leave_no_cyclic_garbage(self, argv, capsys):
        gc.collect()
        gc.disable()
        try:
            code, _, _ = call_main(["--format", "json", *map(str, argv)],
                                   capsys)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert code == 0
        assert garbage == 0


GOLDEN_RUNS = [
    ([command, FIXTURES / f"{fixture}.json"], f"{command}-{fixture}.json")
    for fixture in ("fig8", "fig8_cover3", "fig8_cover8", "fig8_cover32")
    for command in ("cvol", "flatten", "edges", "homology")
] + [(["--seed", "0", "verify", "--count", "50"], "verify-seed0.json")]


class TestPipedOutput:
    """Output of fresh ``cvol`` processes through pipes, launched as the
    benchmark launches them: the golden bytes, and an error run's exit
    code and message."""

    @pytest.mark.parametrize("argv,golden", GOLDEN_RUNS,
                             ids=[golden for _, golden in GOLDEN_RUNS])
    def test_golden_bytes(self, argv, golden):
        result = run_cli(["--format", "json", *argv])
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout == (FIXTURES / "golden" / golden).read_text()

    def test_error_run(self, tmp_path, capsys):
        argv = ["cvol", str(tmp_path / "missing.json")]
        result = run_cli(argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert (result.returncode, result.stdout, result.stderr) == \
            call_main(argv, capsys)
