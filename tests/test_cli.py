import json

import pytest

from fusionsys import cli, read_report
from fusionsys.verify import (REGISTRY, REGISTRY_ORDER, HypothesisTemplate,
                              TheoremEntry)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_analyze_json(capsys):
    code, out, err = run_cli(capsys, "analyze", "--group", "S4",
                             "--prime", "2", "--json")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["kind"] == "analysis"
    assert doc["payload"]["sylow"]["order"] == 8
    assert doc["payload"]["fusion_p_core"]["order"] == 4


def test_analyze_text(capsys):
    code, out, err = run_cli(capsys, "analyze", "--group",
                             "builtin:dihedral(16)", "--prime", "2")
    assert code == 0
    assert "dihedral(16)" in out
    assert "supersolvable" in out


def test_predicate_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "predicate", "--group", "S4",
                           "--prime", "2",
                           "--subgroup", "[[[0,1],[2,3]],[[0,2],[1,3]]]",
                           "--kind", "strongly_closed", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["holds"] is True
    assert doc["payload"]["subgroup"]["order"] == 4


def test_predicate_pronormal_witness(capsys):
    code, out, _ = run_cli(capsys, "predicate", "--group", "S4",
                           "--prime", "2", "--subgroup", "[[[0,1]]]",
                           "--kind", "pronormal", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["holds"] is False
    assert doc["payload"]["witness"]


def test_check_single_theorem(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "builtin:dicyclic(12)",
                           "--prime", "2", "--theorem", "TheoremB", "--json")
    assert code == 0
    doc = json.loads(out)
    rows = doc["payload"]["rows"]
    assert len(rows) == 1
    assert rows[0]["verdict"] == "pass"
    assert rows[0]["witness_orders"] == [2]


def test_check_all_primes(capsys):
    code, out, _ = run_cli(capsys, "check", "--group", "C12",
                           "--prime", "all", "--json")
    assert code == 0
    doc = json.loads(out)
    primes = {row["prime"] for row in doc["payload"]["rows"]}
    assert primes == {2, 3}
    assert doc["payload"]["totals"]["COUNTEREXAMPLE"] == 0


def test_check_corpus_at_one_prime(capsys):
    code, out, _ = run_cli(capsys, "check", "--corpus", "builtin",
                           "--prime", "3", "--json")
    assert code == 0
    rows = json.loads(out)["payload"]["rows"]
    assert rows and {row["prime"] for row in rows} == {3}


def test_check_prime_not_a_number_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "--group", "S4",
                           "--prime", "two")
    assert code == 2
    assert "error:" in err


def test_check_list(capsys):
    code, out, _ = run_cli(capsys, "check", "--list")
    assert code == 0
    for tid in REGISTRY_ORDER:
        assert tid in out


def test_equivalences(capsys):
    code, out, _ = run_cli(capsys, "equivalences", "--group", "S4",
                           "--prime", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["subnormalizer_agreement"] == 1.0
    assert len(doc["payload"]["rows"]) == 10


def test_equivalences_at_a_prime_not_dividing_the_order(capsys):
    # the context is built at --prime: 5 does not divide |S4|, so S is trivial
    code, out, err = run_cli(capsys, "equivalences", "--group", "S4",
                             "--prime", "5", "--json")
    assert code == 0 and not err
    payload = json.loads(out)["payload"]
    assert payload["prime"] == 5
    assert payload["sylow_order"] == 1
    assert len(payload["rows"]) == 1


def test_seed_option_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--group", "S4", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_unknown_group_exit_two(capsys):
    code, _, err = run_cli(capsys, "analyze", "--group", "NoSuchGroup",
                           "--prime", "2")
    assert code == 2
    assert "error" in err


def test_unknown_theorem_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "--group", "S4",
                           "--theorem", "Bogus")
    assert code == 2
    assert "check --list" in err


def test_capacity_exit_three(capsys):
    code, _, err = run_cli(capsys, "analyze", "--group", "S4", "--prime", "2",
                           "--order-cap", "10")
    assert code == 3
    assert "capacity" in err


def test_counterexample_exit_four(capsys, monkeypatch):
    # a deliberately false conjecture: a trivially satisfied hypothesis with
    # a conclusion S4 does not satisfy
    fake = TheoremEntry(
        theorem_id="Fake",
        description="always-true hypothesis, false conclusion",
        template=HypothesisTemplate("exists_D_weak", "pronormal", (), (),
                                    None),
        conclusion="supersolvable")
    monkeypatch.setitem(REGISTRY, "Fake", fake)
    code, out, _ = run_cli(capsys, "check", "--group", "S4", "--prime", "2",
                           "--theorem", "Fake", "--json")
    assert code == 4
    doc = json.loads(out)
    assert doc["payload"]["rows"][0]["verdict"] == "COUNTEREXAMPLE"


def test_out_writes_canonical_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--group", "A4", "--prime", "2",
                           "--json", "--out", str(target))
    assert code == 0
    on_disk = read_report(str(target))
    assert json.loads(out) == on_disk


def test_group_file_input(capsys, tmp_path):
    from fusionsys import save_group, symmetric
    path = tmp_path / "sym3.json"
    save_group(str(path), "Sym3", symmetric(3))
    code, out, _ = run_cli(capsys, "analyze", "--group", str(path),
                           "--prime", "3", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["group"]["name"] == "Sym3"


def test_missing_target_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "--prime", "2")
    assert code == 2
    assert "--group or --corpus" in err
