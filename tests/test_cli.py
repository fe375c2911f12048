import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from placement_opt import cli, evaluate_exact, from_json, gen_random, solvers, to_json
from placement_opt.cli import ALGORITHMS, GENERATORS, ORACLES, main
from placement_opt.instances import BROWSING_FAMILIES, MODEL_FAMILIES

from helpers import reference_lattice_violations


def run(*argv):
    return main(list(argv))


def test_gen_then_solve_round_trip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert run("gen", "--family", "first-slot-only", "--k", "4", "-o", str(path)) == 0
    inst = from_json(path.read_text())
    assert inst.n == 5 and inst.m == 4

    out = tmp_path / "report.json"
    assert (
        run(
            "solve",
            "--instance",
            str(path),
            "--algorithm",
            "brute",
            "-o",
            str(out),
        )
        == 0
    )
    report = json.loads(out.read_text())
    assert report["algorithm"] == "brute-force"
    assert report["w_exact"] == pytest.approx(1.0)  # popular product wins at k=4
    assert report["w_estimate"] is None
    assert len(report["placement"]) == 4


def test_gen_all_families(tmp_path):
    extras = {
        "uniform-line": ["--m", "5"],
        "heavy-tail-line": ["--m", "4", "--epsilon", "1.0"],
        "coverage-mmnl": [
            "--sets", "[[0,1],[1,2]]", "--universe", "3", "--cardinality", "1", "--epsilon", "0.5",
        ],
        "random": ["--n", "4", "--m", "3", "--model", "markov", "--browsing", "explicit"],
    }
    for family in GENERATORS:  # a new family runs at the parser defaults
        path = tmp_path / f"{family}.json"
        assert run("gen", "--family", family, *extras.get(family, []), "-o", str(path)) == 0
        from_json(path.read_text())  # parses and validates


def test_every_algorithm_runs_with_every_oracle(tmp_path):
    # MNL, uniform prices, line browsing: every algorithm and oracle applies
    inst_path = tmp_path / "inst.json"
    assert run("gen", "--family", "uniform-line", "--m", "3", "-o", str(inst_path)) == 0
    inst = from_json(inst_path.read_text())
    for algorithm in ALGORITHMS:
        for oracle in ORACLES:
            out = tmp_path / f"{algorithm}-{oracle}.json"
            argv = ["--instance", str(inst_path), "--algorithm", algorithm]
            assert run("solve", *argv, "--oracle", oracle, "-o", str(out)) == 0
            report = json.loads(out.read_text())
            assert report["w_exact"] == evaluate_exact(inst, report["placement"]), (
                algorithm,
                oracle,
            )


def test_compare_brute_has_unit_ratio(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "first-slot-only", "--k", "3", "-o", str(inst_path))
    out = tmp_path / "cmp.json"
    csv_path = tmp_path / "cmp.csv"
    assert (
        run(
            "compare",
            "--instance",
            str(inst_path),
            "--algorithms",
            "best-of-many,brute",
            "--oracle",
            "brute",
            "-o",
            str(out),
            "--csv",
            str(csv_path),
        )
        == 0
    )
    payload = json.loads(out.read_text())
    rows = {row["algorithm"]: row for row in payload["results"]}
    assert rows["brute"]["ratio_to_best"] == pytest.approx(1.0)
    assert rows["brute"]["ratio_to_opt"] == pytest.approx(1.0)
    assert 0.0 < rows["best-of-many"]["ratio_to_best"] <= 1.0
    assert [row["algorithm"] for row in payload["results"]] == sorted(rows)

    with open(csv_path, newline="") as handle:
        records = list(csv.DictReader(handle))
    assert [r["algorithm"] for r in records] == ["best-of-many", "brute"]


def test_compare_rows_sorted_by_algorithm(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "4", "--m", "2", "--model", "markov",
        "--browsing", "explicit", "-o", str(inst_path))
    out = tmp_path / "cmp.json"
    assert (
        run(
            "compare",
            "--instance",
            str(inst_path),
            "--algorithms",
            "brute,randomized,markov-greedy",
            "--oracle",
            "brute",
            "-o",
            str(out),
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert [row["algorithm"] for row in payload["results"]] == [
        "brute",
        "markov-greedy",
        "randomized",
    ]
    best = max(row["w"] for row in payload["results"])
    for row in payload["results"]:
        assert row["w"] <= best + 1e-12


def _markov_instance(tmp_path, prices=(1.0, 10.0)):
    inst = gen_random(6, 3, model="markov", price_range=prices, browsing="explicit", seed=9)
    path = tmp_path / "inst.json"
    path.write_text(to_json(inst))
    return path


def _compare(path, algorithms, out):
    argv = ["compare", "--instance", str(path), "--algorithms", algorithms]
    return run(*argv, "--oracle", "brute", "--repetitions", "8", "-o", str(out))


def test_compare_builds_one_shared_oracle(tmp_path, monkeypatch):
    path = _markov_instance(tmp_path)
    built, real = [], ORACLES["brute"]

    def counting(instance):
        oracle = real(instance)
        built.append(oracle)
        return oracle

    monkeypatch.setitem(cli.ORACLES, "brute", counting)
    assert _compare(path, "markov-greedy,randomized", tmp_path / "cmp.json") == 0
    assert len(built) == 1
    assert sorted(built.pop()._answers) == [1, 2, 3]

    uniform = _markov_instance(tmp_path, prices=(2.0, 2.0))
    assert _compare(uniform, "brute,uniform-greedy", tmp_path / "none.json") == 0
    assert built == [], "brute and uniform-greedy use no oracle"


def _without_ms(out):
    doc = json.loads(out.read_text())
    for row in doc["results"]:
        row["report"].pop("ms")
    return doc


def test_parser_reused_after_a_bad_flag_matches_a_fresh_process(tmp_path):
    # main builds its parser once per process: a parse error must leave it
    # as fresh for the next call
    path = _markov_instance(tmp_path)
    with pytest.raises(SystemExit) as err:
        run("solve", "--instance", str(path), "--algorithm", "bogus")
    assert err.value.code == 2
    argv = ["compare", "--instance", str(path), "--algorithms", "markov-greedy,randomized",
            "--seed", "5", "-o"]
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert run(*argv, str(here)) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    cmd = [sys.executable, "-m", "placement_opt.cli", *argv, str(fresh)]
    assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
    assert _without_ms(here) == _without_ms(fresh)


def test_importing_the_cli_leaves_the_pool_and_csv_unloaded():
    # only compare uses the thread pool and --csv, so a fresh process that
    # imports the CLI loads neither
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = (
        "import sys, placement_opt.cli; "
        "print(sorted({'csv', 'concurrent.futures'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_solve_randomized_is_reproducible(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "4", "--m", "3", "-o", str(inst_path))
    outs = []
    for name in ["a.json", "b.json"]:
        out = tmp_path / name
        assert (
            run(
                "solve",
                "--instance",
                str(inst_path),
                "--algorithm",
                "randomized",
                "--seed",
                "7",
                "-o",
                str(out),
            )
            == 0
        )
        report = json.loads(out.read_text())
        report.pop("ms")
        outs.append(report)
    assert outs[0] == outs[1]


def test_estimate_verb(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "3", "--m", "2", "-o", str(inst_path))
    out = tmp_path / "est.json"
    assert (
        run(
            "estimate",
            "--instance",
            str(inst_path),
            "--placement",
            "0,1",
            "--epsilon",
            "0.3",
            "--delta",
            "0.2",
            "--samples-override",
            "500",
            "-o",
            str(out),
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["w_estimate"]["samples"] == 500
    inst = from_json(inst_path.read_text())
    assert 0.0 <= payload["w_estimate"]["value"] <= inst.prices.max()


def test_verify_passes_on_valid_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "4", "--m", "2", "--model", "ranked",
        "--price-min", "1", "--price-max", "1", "-o", str(inst_path))
    assert run("verify", "--instance", str(inst_path)) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_coverage_allows_for_customers_who_visit_nothing(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "1", "--m", "1", "--model", "mnl",
        "--browsing", "line", "--seed", "8", "-o", str(inst_path))
    # 86% of customers visit nothing, so m p < 1 and the tolerance is 0.2 OPT / (m p)
    support = from_json(inst_path.read_text()).browsing.support()
    assert sum(prob for locations, prob in support if locations) < 0.2
    assert run("verify", "--instance", str(inst_path)) == 0
    assert "OK all checks passed" in capsys.readouterr().out


def test_missing_instance_file_exits_2(tmp_path):
    assert run("solve", "--instance", str(tmp_path / "nope.json"), "--algorithm", "brute") == 2


def test_unparseable_instance_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert run("solve", "--instance", str(bad), "--algorithm", "brute") == 2


def test_estimate_out_of_range_placement_exits_2(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "5", "--m", "3", "-o", str(inst_path))
    argv = ["estimate", "--instance", str(inst_path), "--placement", "99,-7,42"]
    assert run(*argv, "--samples-override", "10") == 2


@pytest.mark.parametrize("placement, entry", [("1.0", "1.0"), ("1,,2", ""), ("a,b", "a")])
def test_estimate_names_the_placement_entry_it_cannot_read(tmp_path, capsys, placement, entry):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "5", "--m", "3", "-o", str(inst_path))
    assert run("estimate", "--instance", str(inst_path), "--placement", placement) == 2
    err = capsys.readouterr().err
    assert err == f"error: --placement entry {entry!r} is not an integer id\n"


def test_solve_markov_closed_class_exits_2(tmp_path):
    inst_path = tmp_path / "inst.json"
    data = json.loads(to_json(gen_random(3, 2, model="markov", seed=4)))
    data["choice_model"]["transitions"][1:3] = [[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "brute") == 2


def test_non_integral_location_count_exits_2(tmp_path):
    inst_path = tmp_path / "inst.json"
    data = json.loads(to_json(gen_random(3, 2, model="mnl", browsing="explicit", seed=4)))
    data["m"] = 2.7
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "brute") == 2


def test_negative_explicit_location_exits_2_naming_it(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    data = json.loads(to_json(gen_random(3, 2, model="mnl", browsing="explicit", seed=4)))
    data["browsing"]["support"][0]["locations"] = [0, -1]
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "brute") == 2
    assert "location indices must be nonnegative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, bad, message",
    [
        (("products", 0, "price"), "3", "price: expected a number, got '3'"),
        (("m",), True, "m must be an integer, got True"),
    ],
    ids=["price", "m"],
)
def test_quoted_or_boolean_number_exits_2(tmp_path, capsys, path, bad, message):
    inst_path = tmp_path / "inst.json"
    data = json.loads(to_json(gen_random(3, 2, model="mnl", seed=4)))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = bad
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "markov-greedy") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "ids, message",
    [
        ([True, 1, 2], "product id must be an integer, got True"),
        ([0, 1.5, 2], "product id must be an integer, got 1.5"),
        ([-1, 1, 2], "product ids must be dense 0..n-1 in order"),
        ([1, 0, 2], "product ids must be dense 0..n-1 in order"),
    ],
    ids=["bool", "fraction", "negative", "out-of-order"],
)
def test_bad_product_id_exits_2(tmp_path, capsys, ids, message):
    inst_path = tmp_path / "inst.json"
    data = json.loads(to_json(gen_random(3, 2, model="mnl", seed=4)))
    for product, i in zip(data["products"], ids):
        product["id"] = i
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps(data))
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "markov-greedy") == 2
    assert message in capsys.readouterr().err


def test_malformed_instance_json_exits_2_naming_the_field(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    data = json.loads(to_json(gen_random(3, 2, model="mnl", seed=4)))
    del data["products"][1]["id"]
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "brute") == 2
    assert "instance products entry lacks the 'id' field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, browsing, path, bad, message",
    [
        ("mnl", "line", ("choice_model", "weights"), None, "choice_model lacks the 'weights' field"),
        ("mnl", "line", ("browsing", "theta"), None, "browsing lacks the 'theta' field"),
        ("mnl", "explicit", ("browsing", "support"), None, "browsing lacks the 'support' field"),
        (
            "mnl", "explicit", ("browsing", "support", 0, "prob"), None,
            "browsing support entry lacks the 'prob' field",
        ),
        (
            "mnl", "explicit", ("browsing", "support"), 5,
            "browsing field 'support' must be a list of JSON objects",
        ),
        (
            "mmnl", "line", ("choice_model", "segments", 0, "theta"), None,
            "choice_model segments entry lacks the 'theta' field",
        ),
        ("ranked", "line", ("choice_model", "lists"), None, "choice_model lacks the 'lists' field"),
        ("markov", "line", ("choice_model", "arrival"), None, "choice_model lacks the 'arrival' field"),
        (
            "ranked", "line", ("choice_model", "lists", 0, "order"), 5,
            "choice_model lists entry field 'order' must be a list",
        ),
        (
            "mnl", "explicit", ("browsing", "support", 0, "locations"), 5,
            "browsing support entry field 'locations' must be a list",
        ),
    ],
    ids=[
        "mnl-without-weights",
        "line-without-theta",
        "explicit-without-support",
        "support-entry-without-prob",
        "support-number",
        "segment-without-theta",
        "ranked-without-lists",
        "markov-without-arrival",
        "order-number",
        "locations-number",
    ],
)
def test_missing_or_malformed_spec_field_exits_2_naming_it(
    tmp_path, capsys, model, browsing, path, bad, message
):
    data = json.loads(to_json(gen_random(3, 2, model=model, browsing=browsing, seed=4)))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    if bad is None:
        del holder[path[-1]]
    else:
        holder[path[-1]] = bad
    with pytest.raises(ValueError) as raised:
        from_json(json.dumps(data))
    assert message in str(raised.value)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "markov-greedy") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", ["unknown-algorithm", "past-opt-guard", "verify-fails"])
def test_cli_boundaries(tmp_path, capsys, monkeypatch, case):
    inst_path, out = tmp_path / "inst.json", tmp_path / "out.json"
    run("gen", "--family", "random", "--n", "4", "--m", "2", "-o", str(inst_path))
    capsys.readouterr()
    if case == "unknown-algorithm":
        assert run("compare", "--instance", str(inst_path), "--algorithms", "nope,brute") == 2
        assert "unknown algorithm 'nope'" in capsys.readouterr().err
    elif case == "past-opt-guard":
        # 4^2 placements exceed the guard, so no optimum is known
        argv = ["--algorithms", "randomized", "--opt-guard", "1", "-o", str(out)]
        assert run("compare", "--instance", str(inst_path), *argv) == 0
        assert json.loads(out.read_text())["results"][0]["ratio_to_opt"] is None
    else:
        monkeypatch.setattr(cli, "check_weak_rationality", lambda *args, **kwargs: ["v"])
        assert run("verify", "--instance", str(inst_path)) == 1
        assert "FAIL weak rationality: 1 violations" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, result, line",
    [
        ("check_pair_objective_properties", ["v"], "FAIL pair objective: 1 violations"),
        ("estimate_w", (1e9, 1), "FAIL estimator coverage: 0/50 within bound"),
    ],
    ids=["pair-objective", "estimator-coverage"],
)
def test_verify_reports_each_failed_check(tmp_path, capsys, monkeypatch, name, result, line):
    # identical prices and n m <= 12, so every check runs
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "4", "--m", "2", "--price-min", "1",
        "--price-max", "1", "-o", str(inst_path))
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: result)
    assert run("verify", "--instance", str(inst_path)) == 1
    out = capsys.readouterr().out
    assert line in out and "OK" not in out


@pytest.mark.parametrize("model", MODEL_FAMILIES)
@pytest.mark.parametrize("browsing", BROWSING_FAMILIES)
def test_verify_prints_what_it_printed_with_the_chain_walk(
    tmp_path, capsys, monkeypatch, model, browsing
):
    # identical prices and n m <= 8: verify runs the pair check, and the
    # chain walk it replaced stays fast enough to run beside it
    for n, m in ((2, 4), (4, 2)):
        inst = gen_random(n, m, model=model, price_range=(1.0, 1.0), browsing=browsing, seed=n)
        inst_path = tmp_path / f"inst-{n}.json"
        inst_path.write_text(to_json(inst))
        code = run("verify", "--instance", str(inst_path))
        out = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_lattice_violations", reference_lattice_violations)
            assert run("verify", "--instance", str(inst_path)) == code
        assert capsys.readouterr().out == out


def test_solve_without_output_prints_the_report(tmp_path, capsys):
    inst_path, out = tmp_path / "inst.json", tmp_path / "out.json"
    run("gen", "--family", "random", "--n", "4", "--m", "2", "-o", str(inst_path))
    argv = ["solve", "--instance", str(inst_path), "--algorithm", "brute"]
    assert run(*argv, "-o", str(out)) == 0
    capsys.readouterr()
    assert run(*argv) == 0
    printed, written = json.loads(capsys.readouterr().out), json.loads(out.read_text())
    assert printed.pop("ms") >= 0 and written.pop("ms") >= 0
    assert printed == written


def test_size_guard_exits_3(tmp_path):
    inst_path = tmp_path / "big.json"
    inst = gen_random(30, 5, model="mnl", seed=0)
    inst_path.write_text(to_json(inst))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "brute") == 3


def test_wrong_algorithm_for_model_exits_2(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("gen", "--family", "random", "--n", "3", "--m", "2", "--model", "mmnl",
        "-o", str(inst_path))
    assert (
        run("solve", "--instance", str(inst_path), "--algorithm", "markov-greedy",
            "--oracle", "brute")
        == 2
    )


@pytest.mark.parametrize(
    "argv",
    [["gen", "--family", "uniform-line"], ["compare", "--algorithms", "brute"],
     ["estimate", "--placement", "0"], ["verify"]]
    + [["solve", "--algorithm", name] for name in ALGORITHMS],
)
def test_negative_seed_exits_2_before_any_work(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    # the instance file does not exist: the seed is checked before it is read
    inst = [] if argv[0] == "gen" else ["--instance", str(tmp_path / "nope.json")]
    rest = [] if argv[0] == "verify" else ["-o", str(out)]
    assert run(*argv, *inst, *rest, "--seed", "-1") == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        run("solve", "--algorithm", "brute")  # missing --instance
    assert err.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_nonpositive_trials_exit_2_before_any_work(tmp_path, capsys, trials):
    path = tmp_path / "inst.json"
    argv = ["--family", "random", "--n", "8", "--m", "2", "-o", str(path)]
    assert run("gen", *argv) == 0
    assert run("verify", "--instance", str(path), "--trials", trials) == 2
    captured = capsys.readouterr()
    assert "trials must be positive" in captured.err
    assert "OK" not in captured.out


@pytest.mark.parametrize("verb", ["solve", "compare"])
@pytest.mark.parametrize(
    "flag", [["--epsilon", "0.1"], ["--delta", "0.05"], ["--samples-override", "10"]]
)
def test_estimation_flags_are_gone_from_solve_and_compare(tmp_path, verb, flag):
    # JSON browsing is always enumerable, so solve and compare evaluate W exactly
    path = _markov_instance(tmp_path)
    pick = ["--algorithm", "randomized"] if verb == "solve" else ["--algorithms", "randomized"]
    with pytest.raises(SystemExit) as err:
        run(verb, "--instance", str(path), *pick, *flag)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["compare", "--algorithms", "brute", "--repetitions", "0"],
     ["solve", "--algorithm", "markov-greedy", "--repetitions", "-3"]],
)
def test_nonpositive_repetitions_exit_2_before_any_work(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    # the instance file does not exist: repetitions are checked before it is read
    assert run(*argv, "--instance", str(tmp_path / "nope.json"), "-o", str(out)) == 2
    assert "repetitions must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_huge_location_count_is_guarded_without_computing_n_to_the_m(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    data = json.loads(to_json(gen_random(3, 2, model="mnl", browsing="explicit", seed=4)))
    data["m"] = 10**7
    inst_path.write_text(json.dumps(data))
    assert run("solve", "--instance", str(inst_path), "--algorithm", "brute") == 3
    assert "placements" in capsys.readouterr().err
    assert run("verify", "--instance", str(inst_path)) == 0
    assert "too large for the brute-force coverage check" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["solve", "--algorithm", "markov-greedy", "-o"],
     ["compare", "--algorithms", "markov-greedy", "-o", "cmp.json", "--csv"]],
    ids=["output", "csv"],
)
def test_unwritable_output_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    path = _markov_instance(tmp_path)
    monkeypatch.chdir(tmp_path)
    missing = str(tmp_path / "missing" / "out")
    assert run(*argv, missing, "--instance", str(path), "--oracle", "brute") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bound", ["--price-min", "--price-max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_price_range_exits_2(tmp_path, capsys, bound, value):
    out = tmp_path / "inst.json"
    assert run("gen", "--family", "random", bound, value, "-o", str(out)) == 2
    assert "price range must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["inf", "1e300", "1e-320", "nan"])
def test_degenerate_heavy_tail_epsilon_exits_2(tmp_path, capsys, epsilon):
    out = tmp_path / "inst.json"
    argv = ["gen", "--family", "heavy-tail-line", "--m", "3", "--epsilon", epsilon]
    assert run(*argv, "-o", str(out)) == 2
    assert "zero or non-finite weight or price" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sets", ["[1]", "[null]", "[[0.5]]", '[["1"]]', "[[true]]", "5"])
def test_malformed_cover_sets_exit_2(tmp_path, capsys, sets):
    out = tmp_path / "inst.json"
    argv = ["gen", "--family", "coverage-mmnl", "--sets", sets, "--universe", "2"]
    assert run(*argv, "-o", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_explicit_random_browsing_beyond_62_locations_exits_2(tmp_path, capsys):
    out = tmp_path / "inst.json"
    argv = ["gen", "--family", "random", "--browsing", "explicit", "--m", "63"]
    assert run(*argv, "-o", str(out)) == 2
    assert "m <= 62" in capsys.readouterr().err
    assert not out.exists()


def _field_paths(node, path=()):
    """Path to every value below the document root, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, path + (key,))


_DELETE = object()


# no explain phase: on a failing example it ran for minutes and grew past 600 MB
@settings(
    max_examples=300, deadline=None, derandomize=True, phases=[Phase.generate, Phase.shrink]
)
@given(
    model=st.sampled_from(("mnl", "mmnl", "markov", "ranked")),
    browsing=st.sampled_from(("line", "explicit")),
    n=st.integers(2, 4),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_mutated_instance_json_exits_cleanly_property(
    tmp_path_factory, model, browsing, n, m, seed, data
):
    doc = json.loads(to_json(gen_random(n, m, model=model, browsing=browsing, seed=seed)))
    path = data.draw(st.sampled_from(list(_field_paths(doc))))
    value = data.draw(st.sampled_from([None, [], {}, "x", -1, 2.5, 1e308, True, _DELETE]))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if value is _DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    folder = tmp_path_factory.mktemp("mutated")
    inst_path = folder / "inst.json"
    inst_path.write_text(json.dumps(doc))
    # brute is size-guarded, so a huge m exits 3 instead of running for ever
    argv = ["solve", "--instance", str(inst_path), "--algorithm", "brute"]
    assert run(*argv, "-o", str(folder / "report.json")) in (0, 2, 3)
