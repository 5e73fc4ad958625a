import json

import numpy as np
import pytest

from ldpselect import (
    DiscreteDistribution,
    HypothesisSet,
    SelectionConfig,
    SimulatedPopulation,
    plan_sample_size,
    random_hypothesis_set,
    rmde,
    scheffe_graph,
)
from ldpselect.cli import main


def write_point_masses(path, d=3):
    hs = HypothesisSet(tuple(DiscreteDistribution.point_mass(i, d) for i in range(1, d + 1)))
    hs.save(path)


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if not k.endswith("_ms")}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


SEEDED_COMMANDS = {
    "gen": ["gen", "--k", "3", "--d", "4"],
    "dominate": ["dominate", "--in", "{hyp}"],
    "select": ["select", "--in", "{hyp}", "--alpha", "1.0", "--beta", "0.2", "--epsilon", "0.5",
               "--p-index", "1"],
    "barrier-lbgraph": ["barrier", "lbgraph", "--k", "16"],
    "barrier-flatten": ["barrier", "flatten", "--n", "8", "--trials", "5"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    hyp = tmp_path / "hyp.json"
    write_point_masses(hyp)
    argv = [arg.format(hyp=hyp) for arg in SEEDED_COMMANDS[command]]
    assert main(argv + ["--seed", "-1", "--out", str(tmp_path / "out.json")]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


class TestGen:
    def test_writes_loadable_file(self, tmp_path):
        out = tmp_path / "hyp.json"
        assert main(["gen", "--k", "4", "--d", "6", "--seed", "3", "--out", str(out)]) == 0
        hs = HypothesisSet.load(out)
        assert hs.k == 4 and hs.domain_size == 6

    def test_byte_identical_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen", "--k", "5", "--d", "4", "--seed", "11", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_large_dirichlet(self, tmp_path):
        out = tmp_path / "hyp.json"
        main(["gen", "--k", "16", "--d", "64", "--seed", "2", "--out", str(out)])
        first = HypothesisSet.load(out)
        resaved = tmp_path / "resaved.json"
        first.save(resaved)
        assert HypothesisSet.load(resaved).probs_matrix.tolist() == first.probs_matrix.tolist()

    def test_drawn_seed_is_printed_and_reproducible(self, tmp_path, capsys):
        out = tmp_path / "hyp.json"
        assert main(["gen", "--k", "3", "--d", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        seed = int(printed.split("seed:")[1].split()[0])
        again = tmp_path / "again.json"
        main(["gen", "--k", "3", "--d", "3", "--seed", str(seed), "--out", str(again)])
        assert out.read_bytes() == again.read_bytes()


class TestGraph:
    def test_two_hypotheses(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        HypothesisSet((DiscreteDistribution(np.array([1.0, 0.0])),
                       DiscreteDistribution(np.array([0.0, 1.0])))).save(hyp)
        out = tmp_path / "graph.json"
        assert main(["graph", "--in", str(hyp), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["stats"]["vertices"] == 1
        assert doc["stats"]["edge_count"] == 0

    def test_point_mass_edge_list(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        write_point_masses(hyp)
        out = tmp_path / "graph.json"
        assert main(["graph", "--in", str(hyp), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["edges"] == [[1, 2, 2, 3], [1, 3, 2, 3], [2, 3, 1, 3]]
        assert doc["stats"]["edge_count"] == 3
        assert doc["stats"]["triangle_scan"]["violations"] == 0

    def test_missing_input_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["graph", "--in", str(missing), "--out", str(tmp_path / "g.json")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["graph", "--in", str(bad), "--out", str(tmp_path / "g.json")]) == 2

    @pytest.mark.parametrize("rows", [[1, 2], [[0.5, "x"]]])
    def test_malformed_hypothesis_row(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain_size": 2, "hypotheses": rows}))
        assert main(["graph", "--in", str(bad), "--out", str(tmp_path / "g.json")]) == 2
        assert "hypothesis 1" in capsys.readouterr().err

    @pytest.mark.parametrize("domain_size", ["a", 2.5])
    def test_non_integer_domain_size(self, tmp_path, capsys, domain_size):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"domain_size": domain_size, "hypotheses": [[0.5, 0.5], [1.0, 0.0]]}))
        assert main(["graph", "--in", str(bad), "--out", str(tmp_path / "g.json")]) == 2
        assert "domain_size" in capsys.readouterr().err

    def test_graph_too_large_for_memory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        hyp, out = tmp_path / "hyp.json", tmp_path / "g.json"
        random_hypothesis_set(216, 4, seed=1).save(hyp)  # 67,407,660 bytes of packed bits
        monkeypatch.setattr(scheffe_graph, "_available_memory", lambda: 50_000_000)
        assert main(["graph", "--in", str(hyp), "--out", str(out)]) == 2
        assert "need 67407660 bytes, but only 50000000 bytes are available" in capsys.readouterr().err
        assert not out.exists()

    def test_export_too_large_for_memory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        hyp, out = tmp_path / "hyp.json", tmp_path / "g.json"
        random_hypothesis_set(12, 16, seed=2).save(hyp)
        assert main(["graph", "--in", str(hyp), "--out", str(out)]) == 0
        written = out.read_bytes()
        edges = json.loads(written)["stats"]["edge_count"]
        need = scheffe_graph._EXPORT_BYTES_PER_EDGE * edges
        out.unlink()
        monkeypatch.setattr(scheffe_graph, "_MEMORY_CHECK_BYTES", 0)
        with monkeypatch.context() as m:
            m.setattr(scheffe_graph, "_available_memory", lambda: need - 1)
            m.setattr(scheffe_graph.PairDigraph, "edge_ids", None)  # the edge list is never built
            assert main(["graph", "--in", str(hyp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"JSON export of the {edges} edges of a k=12 graph need {need} bytes, but only {need - 1}" in err
        assert not out.exists()
        monkeypatch.setattr(scheffe_graph, "_available_memory", lambda: need)
        assert main(["graph", "--in", str(hyp), "--out", str(out)]) == 0
        assert out.read_bytes() == written


class TestDominate:
    def test_certificate_file(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "8", "--d", "10", "--seed", "4", "--out", str(hyp)])
        out = tmp_path / "cert.json"
        assert main(["dominate", "--in", str(hyp), "--seed", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["dominating_set"]) <= doc["target_bound"] or \
            len(doc["dominating_set"]) <= 28
        assert doc["attempts"] >= 1

    def test_deterministic_modulo_timing(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "6", "--d", "8", "--seed", "6", "--out", str(hyp)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["dominate", "--in", str(hyp), "--seed", "9", "--out", str(out)])
        da = strip_timing(json.loads(a.read_text()))
        db = strip_timing(json.loads(b.read_text()))
        assert da == db


def population_argv(tmp_path, flags):
    """A select command line on point masses; {p_file} and {samples} name files it writes."""
    hyp, p_file, samples = tmp_path / "hyp.json", tmp_path / "p.json", tmp_path / "samples.txt"
    write_point_masses(hyp)
    p_file.write_text(json.dumps([0.2, 0.3, 0.5]))
    samples.write_text("1\n2\n3\n")
    return [
        "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
        "--epsilon", "1.0", "--seed", "1", "--out", str(tmp_path / "r.json"),
    ] + [f.format(p_file=p_file, samples=samples) for f in flags]


class TestSelect:
    def test_negative_user_count(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.json"
        write_point_masses(hyp)
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "0.5", "--seed", "1", "--n", "-5",
            "--p-index", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_is_a_usage_error(self, tmp_path, capsys, epsilon):
        hyp = tmp_path / "hyp.json"
        write_point_masses(hyp)
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", epsilon, "--seed", "1", "--p-index", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "epsilon must be positive and finite" in capsys.readouterr().err

    def test_trials_with_p_in_set(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "4", "--d", "8", "--seed", "7", "--out", str(hyp)])
        out = tmp_path / "report.json"
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "8", "--trials", "3",
            "--p-index", "2", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 3
        assert len(doc["records"]) == 3
        assert doc["failure_rate"] == sum(not r["passed"] for r in doc["records"]) / 3
        csv_text = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_text[0].startswith("trial,seed,opt,error,bound,passed")
        assert len(csv_text) == 4

    def test_trials_share_one_plan(self, tmp_path, monkeypatch):
        covers = []
        real_cover = rmde._randomized_cover

        def counting_cover(*args, **kwargs):
            covers.append(args)
            return real_cover(*args, **kwargs)

        monkeypatch.setattr(rmde, "_randomized_cover", counting_cover)
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "6", "--d", "8", "--seed", "7", "--out", str(hyp)])
        out = tmp_path / "report.json"
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "0.5", "--seed", "8", "--trials", "3",
            "--p-index", "2", "--out", str(out),
        ])
        assert code == 0
        assert len(covers) == 1
        doc = json.loads(out.read_text())
        config = SelectionConfig(alpha=1.0, beta=0.2, epsilon=0.5, seed=8)
        assert doc["users_planned"] == plan_sample_size(6, config)
        assert doc["plan_ms"] > 0
        assert len({r["dominating_set_size"] for r in doc["records"]}) == 1
        assert len({r["seed"] for r in doc["records"]}) == 3

    def test_trial_run_stream_is_not_the_population_stream(self, tmp_path, monkeypatch):
        # SeedSequence(s) and SeedSequence([s, 0]) share their state, so the run must not use either
        states = {"draw": [], "run": []}
        real_draw, real_run = SimulatedPopulation.draw.__func__, rmde.SelectionPlan.run

        def draw(cls, dist, n, seed):
            states["draw"].append(tuple(np.random.SeedSequence(seed.entropy).generate_state(4)))
            return real_draw(cls, dist, n, seed)

        def run(plan, pop, rng):
            states["run"].append(tuple(rng.bit_generator.seed_seq.generate_state(4)))
            return real_run(plan, pop, rng)

        monkeypatch.setattr(SimulatedPopulation, "draw", classmethod(draw))
        monkeypatch.setattr(rmde.SelectionPlan, "run", run)
        hyp = tmp_path / "hyp.json"
        write_point_masses(hyp)
        assert main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2", "--epsilon", "0.5",
            "--seed", "3", "--trials", "2", "--p-index", "1", "--out", str(tmp_path / "r.json"),
        ]) == 0
        assert len(states["draw"]) == len(states["run"]) == 2
        assert not set(states["draw"]) & set(states["run"])

    def test_single_near_noiseless_trial_passes(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "4", "--d", "6", "--seed", "21", "--out", str(hyp)])
        out = tmp_path / "report.json"
        code = main([
            "select", "--in", str(hyp), "--alpha", "0.5", "--beta", "0.1",
            "--epsilon", "20", "--seed", "22", "--trials", "1",
            "--p-index", "3", "--out", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text())["records"][0]
        assert record["passed"] is True
        assert record["error"] <= 0.5

    def test_zero_trials_rejected(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "4", "--seed", "1", "--out", str(hyp)])
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "1", "--trials", "0",
            "--p-index", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_p_mix_population(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "6", "--seed", "9", "--out", str(hyp)])
        out = tmp_path / "report.json"
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.2", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "10", "--trials", "2",
            "--p-index", "1", "--p-mix", "0.9", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(r["opt"] > 0 for r in doc["records"])

    def test_sample_file_mode(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        q1 = DiscreteDistribution(np.array([0.5, 0.5, 0.0, 0.0]))
        q2 = DiscreteDistribution(np.array([0.0, 0.0, 0.5, 0.5]))
        HypothesisSet((q1, q2)).save(hyp)
        rng = np.random.default_rng(0)
        samples = rng.choice([1, 2], size=5000)
        sample_file = tmp_path / "samples.txt"
        sample_file.write_text("\n".join(map(str, samples)) + "\n")
        out = tmp_path / "report.json"
        code = main([
            "select", "--in", str(hyp), "--alpha", "2.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "11", "--samples", str(sample_file),
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["records"][0]["selected_index"] == 1
        assert doc["records"][0]["users_consumed"] <= len(samples)
        assert doc["failure_rate"] is None

    def test_sample_file_rejects_user_count(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "4", "--seed", "1", "--out", str(hyp)])
        sample_file = tmp_path / "samples.txt"
        sample_file.write_text("1\n2\n")
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "1", "--n", "2",
            "--samples", str(sample_file), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("probs", [
        [True, False, False, False], ["x", 1], {"a": 1}, ["0.25", "0.25", "0.25", "0.25"],
    ])
    def test_p_file_rejects_non_numeric_masses(self, tmp_path, capsys, probs):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "4", "--seed", "1", "--out", str(hyp)])
        p_file = tmp_path / "p.json"
        p_file.write_text(json.dumps(probs))
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "1",
            "--p-file", str(p_file), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert str(p_file) in capsys.readouterr().err

    def test_sample_file_rejects_multiple_trials(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "4", "--seed", "1", "--out", str(hyp)])
        sample_file = tmp_path / "samples.txt"
        sample_file.write_text("1\n2\n")
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "1", "--trials", "2",
            "--samples", str(sample_file), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("line", ["x", "2.5"])
    def test_sample_file_bad_line_names_file(self, tmp_path, capsys, line):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "4", "--seed", "1", "--out", str(hyp)])
        sample_file = tmp_path / "samples.txt"
        sample_file.write_text(f"1\n{line}\n2\n")
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "1",
            "--samples", str(sample_file), "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert str(sample_file) in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--p-file", "{p_file}", "--p-index", "2"],
        ["--p-file", "{p_file}", "--p-index", "2", "--p-mix", "0.3"],
        ["--samples", "{samples}", "--p-index", "1"],
        ["--samples", "{samples}", "--p-file", "{p_file}"],
    ], ids=["file-and-index", "file-index-mix", "samples-and-index", "samples-and-file"])
    def test_conflicting_population_flags_rejected(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(population_argv(tmp_path, flags))
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("source", [[], ["--p-file", "{p_file}"], ["--samples", "{samples}"]],
                             ids=["alone", "with-p-file", "with-samples"])
    def test_p_mix_requires_p_index(self, tmp_path, capsys, source):
        assert main(population_argv(tmp_path, ["--p-mix", "0.3"] + source)) == 2
        assert "so --p-index is required" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_population_arguments_required(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "4", "--seed", "1", "--out", str(hyp)])
        code = main([
            "select", "--in", str(hyp), "--alpha", "1.0", "--beta", "0.2",
            "--epsilon", "1.0", "--seed", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_deterministic_given_seed(self, tmp_path):
        hyp = tmp_path / "hyp.json"
        main(["gen", "--k", "3", "--d", "5", "--seed", "12", "--out", str(hyp)])
        docs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main([
                "select", "--in", str(hyp), "--alpha", "1.5", "--beta", "0.2",
                "--epsilon", "1.0", "--seed", "13", "--trials", "2",
                "--p-index", "1", "--out", str(out),
            ])
            docs.append(strip_timing(json.loads(out.read_text())))
        assert docs[0] == docs[1]


class TestBarrierCommands:
    def test_lbgraph(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["barrier", "lbgraph", "--k", "16", "--seed", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == 16 and doc["ell"] == 32
        assert doc["recomputed_lower_bound"] >= doc["implied_lower_bound"]
        assert doc["implied_lower_bound"] >= doc["formula_floor"]

    def test_lbgraph_small_k(self, tmp_path):
        assert main(["barrier", "lbgraph", "--k", "8", "--seed", "1",
                     "--out", str(tmp_path / "c.json")]) == 2

    def test_lbgraph_too_large_for_memory_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "lb.json"
        monkeypatch.setattr(scheffe_graph, "_available_memory", lambda: 50_000_000)
        assert main(["barrier", "lbgraph", "--k", "256", "--seed", "1", "--out", str(out)]) == 2
        assert "need 140939520 bytes, but only 50000000 bytes are available" in capsys.readouterr().err
        assert not out.exists()

    def test_flatten(self, tmp_path):
        out = tmp_path / "flat.json"
        assert main(["barrier", "flatten", "--n", "8", "--trials", "40", "--seed", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["worst_min_distance"] <= doc["bound"]
        assert doc["max_frobenius_deviation"] <= 1e-9

    def test_flatten_rejects_non_power_of_two(self, tmp_path):
        assert main(["barrier", "flatten", "--n", "12", "--trials", "5", "--seed", "1",
                     "--out", str(tmp_path / "f.json")]) == 2
