"""Circuit-source registry: ids, the corpus source, prep and campaigns.

Covers the registry tentpole end to end:

* qualified-id parsing with the bare-name -> ``gen:`` alias;
* the corpus source: manifest-driven specs, file-byte digests, strict
  loading (interface mismatch, parse failure), integrity verification;
* ``.bench`` hardening: duplicate drivers, undeclared signals and
  dangling outputs rejected with precise line numbers, and the
  parse -> emit -> parse round-trip check;
* preparation: corpus circuits through :func:`prepare_locked` with
  cold == warm store bit-identity for both sources, digest invalidation
  when a corpus netlist is edited, and per-technique extra-parameter
  keying (``sfll_flex`` cubes, not just ``sfll_hd`` h);
* campaigns: a grid naming ``corpus:`` and ``gen:`` circuits side by
  side through the same expand/cell/aggregate path, identical on the
  serial and the queue path, with cell records carrying circuit
  provenance (source + digest);
* the ``repro circuits list|show|verify`` CLI.
"""

import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.corpus import (
    CorpusError,
    CorpusSource,
    circuit_digest,
    circuit_spec,
    find_spec,
    list_circuits,
    parse_circuit_id,
    qualify,
    resolve_circuit,
    verify_circuit,
)
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.harness import (
    _prep_key,
    clear_prep_cache,
    prepare_locked,
    technique_params,
)
from repro.netlist import (
    BenchStructureError,
    CircuitStructureError,
    ParseError,
    bench_round_trip_identical,
    parse_bench,
    write_bench,
)

C17 = """INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


def _write_corpus(root, name="c17", text=C17, key_width=2, **overrides):
    """A one-circuit corpus directory under ``root``."""
    os.makedirs(root, exist_ok=True)
    bench_path = os.path.join(root, f"{name}.bench")
    with open(bench_path, "w") as handle:
        handle.write(text)
    circuit = parse_bench(text, name=name)
    entry = {
        "file": f"{name}.bench",
        "family": "iscas85",
        "inputs": len(circuit.inputs),
        "outputs": len(circuit.outputs),
        "gates": circuit.num_gates,
        "key_width": key_width,
        "sha256": hashlib.sha256(open(bench_path, "rb").read()).hexdigest(),
    }
    entry.update(overrides)
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump({"circuits": {name: entry}}, handle)
    return bench_path


class TestCircuitIds:
    def test_bare_names_alias_to_gen(self):
        assert qualify("c6288") == "gen:c6288"
        assert qualify("gen:c6288") == "gen:c6288"
        assert qualify("corpus:c432") == "corpus:c432"

    def test_parse_roundtrip(self):
        cid = parse_circuit_id("corpus:c432")
        assert (cid.source, cid.name) == ("corpus", "c432")
        assert parse_circuit_id(cid) is cid
        assert str(cid) == "corpus:c432"

    def test_malformed_ids_rejected(self):
        for bad in ("", ":", "corpus:", ":c432", None, 7):
            with pytest.raises(CorpusError):
                parse_circuit_id(bad)

    def test_unknown_source_and_name(self):
        with pytest.raises(CorpusError, match="unknown circuit source"):
            resolve_circuit("nowhere:c432")
        with pytest.raises(CorpusError, match="unknown generated circuit"):
            resolve_circuit("gen:nope")
        assert find_spec("gen:nope") is None
        assert find_spec("nowhere:c432") is None


class TestCorpusSource:
    def test_checked_in_corpus_lists_and_verifies(self):
        rows = list_circuits("corpus")
        names = {row["id"] for row in rows}
        assert {"corpus:c17", "corpus:c432", "corpus:c499",
                "corpus:c880"} <= names
        for row in rows:
            assert verify_circuit(row["id"]) == []

    def test_digest_is_file_bytes(self, tmp_path, monkeypatch):
        root = str(tmp_path / "corpus")
        path = _write_corpus(root)
        monkeypatch.setenv("REPRO_CORPUS_DIR", root)
        expected = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert circuit_digest("corpus:c17") == expected
        # Scale never perturbs a corpus digest (fixed artifacts).
        assert circuit_digest("corpus:c17", scale="paper") == expected

    def test_spec_comes_from_manifest(self, tmp_path, monkeypatch):
        root = str(tmp_path / "corpus")
        _write_corpus(root, key_width=4)
        monkeypatch.setenv("REPRO_CORPUS_DIR", root)
        spec = circuit_spec("corpus:c17")
        assert (spec.inputs, spec.outputs, spec.gates) == (5, 2, 6)
        assert spec.key_width == 4
        assert spec.source == "corpus"
        assert spec.kind == "bench"

    def test_interface_mismatch_rejected(self, tmp_path, monkeypatch):
        root = str(tmp_path / "corpus")
        _write_corpus(root, inputs=9)  # lie about the interface
        monkeypatch.setenv("REPRO_CORPUS_DIR", root)
        with pytest.raises(CorpusError, match="does not match its manifest"):
            resolve_circuit("corpus:c17")

    def test_corrupt_netlist_rejected_and_flagged(self, tmp_path, monkeypatch):
        root = str(tmp_path / "corpus")
        path = _write_corpus(root)
        with open(path, "a") as handle:
            handle.write("22 = NAND(10, 16)\n")  # duplicate driver
        monkeypatch.setenv("REPRO_CORPUS_DIR", root)
        with pytest.raises(CorpusError, match="strict parse"):
            resolve_circuit("corpus:c17")
        problems = verify_circuit("corpus:c17")
        assert any("sha256 mismatch" in p for p in problems)

    def test_missing_manifest_is_a_clear_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CORPUS_DIR", str(tmp_path / "empty"))
        with pytest.raises(CorpusError, match="no corpus manifest"):
            CorpusSource().manifest()


class TestBenchHardening:
    def test_duplicate_driver_line_numbered(self):
        text = "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nx = AND(a, b)\nx = OR(a, b)\n"
        with pytest.raises(BenchStructureError) as err:
            parse_bench(text)
        assert "duplicate driver" in str(err.value)
        assert "line 5" in str(err.value)
        assert "line 4" in str(err.value)  # points back at the first driver

    def test_undeclared_signal_line_numbered(self):
        text = "INPUT(a)\nOUTPUT(x)\nx = AND(a, ghost)\n"
        with pytest.raises(BenchStructureError) as err:
            parse_bench(text)
        assert "undeclared signal 'ghost'" in str(err.value)
        assert "line 3" in str(err.value)

    def test_dangling_output_line_numbered(self):
        text = "INPUT(a)\nOUTPUT(a)\nOUTPUT(nothing)\n"
        with pytest.raises(BenchStructureError) as err:
            parse_bench(text)
        assert "dangling output 'nothing'" in str(err.value)
        assert "line 3" in str(err.value)

    def test_structure_errors_satisfy_both_hierarchies(self):
        with pytest.raises(BenchStructureError) as err:
            parse_bench("INPUT(a)\nOUTPUT(x)\nx = AND(a, ghost)\n")
        assert isinstance(err.value, ParseError)
        assert isinstance(err.value, CircuitStructureError)

    def test_forward_references_stay_legal(self):
        text = "INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = BUF(a)\n"
        circuit = parse_bench(text)
        assert circuit.gate("y").fanins == ("z",)

    def test_round_trip_identical_on_corpus(self):
        identical, problems = bench_round_trip_identical(C17, name="c17")
        assert identical, problems

    def test_round_trip_covers_gate_changes(self):
        first = parse_bench(C17, name="c17")
        emitted = write_bench(first)
        tampered = emitted.replace("22 = NAND(10, 16)", "22 = AND(10, 16)")
        second = parse_bench(tampered, name="c17")
        gates = {g.name: (g.gtype, g.fanins) for g in first.gates()}
        gates2 = {g.name: (g.gtype, g.fanins) for g in second.gates()}
        assert gates != gates2  # the helper's comparison would flag this


class TestPreparation:
    def test_corpus_prepare_cold_equals_warm(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        for circuit_id in ("corpus:c17", "c6288"):
            clear_prep_cache()
            cold = prepare_locked(circuit_id, "sarlock", scale="tiny")
            clear_prep_cache()
            warm = prepare_locked(circuit_id, "sarlock", scale="tiny")
            assert write_bench(cold.netlist) == write_bench(warm.netlist)
            assert cold.locked.correct_key == warm.locked.correct_key
            assert cold.digest == warm.digest
            assert cold.circuit_id == warm.circuit_id == qualify(circuit_id)

    def test_corpus_prep_carries_provenance(self, tmp_path, monkeypatch):
        root = str(tmp_path / "corpus")
        path = _write_corpus(root)
        monkeypatch.setenv("REPRO_CORPUS_DIR", root)
        clear_prep_cache()
        prep = prepare_locked("corpus:c17", "sarlock", store=False)
        assert prep.source == "corpus"
        assert prep.circuit_id == "corpus:c17"
        assert prep.digest == hashlib.sha256(
            open(path, "rb").read()).hexdigest()
        assert prep.scale is None  # corpus preps are scale-independent
        assert prep.key_width == 2
        assert prep.provenance() == {
            "id": "corpus:c17", "source": "corpus", "digest": prep.digest,
        }

    def test_editing_corpus_file_invalidates_prep(self, tmp_path, monkeypatch):
        root = str(tmp_path / "corpus")
        path = _write_corpus(root)
        monkeypatch.setenv("REPRO_CORPUS_DIR", root)
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        clear_prep_cache()
        first = prepare_locked("corpus:c17", "sarlock")
        store = prepstore.prep_store()
        assert store.stats()["store_misses"] == 1

        # Functionally different netlist, same manifest interface.
        with open(path, "w") as handle:
            handle.write(C17.replace("22 = NAND(10, 16)", "22 = AND(10, 16)"))
        manifest_path = os.path.join(root, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["circuits"]["c17"]["sha256"] = hashlib.sha256(
            open(path, "rb").read()).hexdigest()
        json.dump({"circuits": manifest["circuits"]}, open(manifest_path, "w"))

        clear_prep_cache()
        second = prepare_locked("corpus:c17", "sarlock")
        # The edit changed the digest, so both cache layers miss.
        assert second.digest != first.digest
        assert store.stats()["store_misses"] == 2
        assert store.stats()["store_hits"] == 0

    def test_technique_params_declared_per_technique(self):
        assert technique_params("sfll_hd") == {"h": 1}
        assert technique_params("sfll_hd", h=3) == {"h": 3}
        assert technique_params("sfll_hd", params={"h": 2}) == {"h": 2}
        assert technique_params("sfll_flex") == {"cubes": 2}
        assert technique_params("sfll_flex", params={"cubes": 3}) == {"cubes": 3}
        # Undeclared extras are dropped, not smuggled into cache keys.
        assert technique_params("sarlock", h=3, params={"cubes": 9}) == {}

    def test_sfll_flex_extras_key_the_cache(self):
        base = _prep_key("c", "sfll_flex", "tiny", 0, 1, True, None)
        assert base == _prep_key("c", "sfll_flex", "tiny", 0, 1, True, None,
                                 params={"cubes": 2})
        assert base != _prep_key("c", "sfll_flex", "tiny", 0, 1, True, None,
                                 params={"cubes": 3})

    def test_sfll_flex_cubes_reach_the_lock(self):
        clear_prep_cache()
        default = prepare_locked("c6288", "sfll_flex", scale="tiny",
                                 store=False)
        more = prepare_locked("c6288", "sfll_flex", scale="tiny",
                              params={"cubes": 3}, store=False)
        assert default is not more
        assert len(default.locked.metadata["cubes"]) == 2
        assert len(more.locked.metadata["cubes"]) == 3


def _grid_spec(name, tmp_path, circuits, workers=0):
    return CampaignSpec(
        name=name,
        artifacts=("table2",),
        options={"circuits": list(circuits), "techniques": ["sarlock"],
                 "scale": "tiny"},
        workers=workers,
        results_root=str(tmp_path / "campaigns"),
    )


def _deterministic_rows(result):
    header, rows = result.unwrap("table2")
    cpu = [i for i, h in enumerate(header) if "CPU" in h]
    return [
        tuple("-" if i in cpu else cell for i, cell in enumerate(row))
        for row in rows
    ]


def _cell_records(spec):
    records = []
    for entry in sorted(os.listdir(spec.cells_dir)):
        if entry.endswith(".json"):
            records.append(json.load(open(os.path.join(spec.cells_dir, entry))))
    return records


class TestCampaigns:
    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "queue"])
    def test_mixed_source_grid_cold_equals_warm(self, tmp_path, monkeypatch,
                                                workers):
        """corpus: and gen: cells share one campaign path, bit-identically."""
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        circuits = ("corpus:c17", "c6288")
        clear_prep_cache()
        cold = run_campaign(
            _grid_spec(f"cold-{workers}", tmp_path, circuits, workers=workers))
        clear_prep_cache()
        warm = run_campaign(
            _grid_spec(f"warm-{workers}", tmp_path, circuits, workers=workers))
        assert _deterministic_rows(cold) == _deterministic_rows(warm)
        # Row identity keeps the spec's spelling of each circuit id.
        first_col = [row[0] for row in _deterministic_rows(cold)]
        assert first_col == ["corpus:c17", "c6288"]

    def test_records_carry_source_and_digest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PREP_STORE_DIR", str(tmp_path / "store"))
        from repro.experiments import prepstore

        monkeypatch.setattr(prepstore, "_STORE", None)
        clear_prep_cache()
        spec = _grid_spec("prov", tmp_path, ("corpus:c17", "c6288"))
        run_campaign(spec)
        records = _cell_records(spec)
        assert len(records) == 2
        by_id = {r["circuit"]["id"]: r["circuit"] for r in records}
        assert by_id["corpus:c17"]["source"] == "corpus"
        assert by_id["corpus:c17"]["digest"] == circuit_digest("corpus:c17")
        assert by_id["gen:c6288"]["source"] == "gen"
        assert by_id["gen:c6288"]["digest"] == circuit_digest(
            "c6288", scale="tiny")


class TestCircuitsCli:
    def test_list_and_show(self, capsys):
        assert main(["circuits", "list", "--source", "corpus"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["id"] == "corpus:c432" for row in rows)
        assert main(["circuits", "show", "corpus:c17"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["source"] == "corpus"
        assert shown["digest"] == circuit_digest("corpus:c17")

    def test_verify_passes_on_checked_in_corpus(self, capsys):
        assert main(["circuits", "verify", "--source", "corpus"]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    def test_verify_fails_on_tampered_corpus(self, tmp_path, monkeypatch,
                                             capsys):
        root = str(tmp_path / "corpus")
        path = _write_corpus(root)
        with open(path, "a") as handle:
            handle.write("# tampered after manifest\n")
        monkeypatch.setenv("REPRO_CORPUS_DIR", root)
        assert main(["circuits", "verify", "corpus:c17"]) == 1
        out = capsys.readouterr().out
        assert "FAIL corpus:c17" in out
        assert "sha256 mismatch" in out

    def test_show_unknown_id_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="circuits error"):
            main(["circuits", "show", "corpus:missing"])
