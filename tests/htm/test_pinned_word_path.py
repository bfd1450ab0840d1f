"""Absolute pins on what the per-op word path answers, under every design.

Word-granular operations never fuse, so they always take the per-op walk
in ``htm/base.py`` (``tx_read``/``tx_write``/``nontx_access`` over
``CacheHierarchy.access``).  The fused-vs-per-op oracle compares two paths
of the same commit, so a change both paths share — such as moving the
off-chip signature check into the cache walk — would pass it unnoticed.
These literals were recorded before that move; the word path must keep
reproducing them exactly.

* A small word-heavy DRAM spec, shaped like the ``onchip-index``
  benchmark workload, runs under all five design points at two seeds.
* A second spec makes the per-op ``nontx_access`` path do real work: a
  graph-walking co-runner issues non-transactional word accesses while
  4 KB values overflow a tiny LLC into 64-bit UHTM signatures, so
  non-transactional requesters take off-chip false-positive hits.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.harness.config import ExperimentSpec, mixed_pmdk
from repro.harness.metrics import run_result_to_dict
from repro.harness.runner import run_experiment
from repro.mem.address import MemoryKind
from repro.params import HTMConfig, HTMDesign, SignatureConfig
from repro.workloads import WorkloadParams

#: Design points: label -> (design, isolation).
DESIGNS = {
    "llc_bounded": (HTMDesign.LLC_BOUNDED, True),
    "signature_only": (HTMDesign.SIGNATURE_ONLY, False),
    "uhtm_opt": (HTMDesign.UHTM, True),
    "uhtm": (HTMDesign.UHTM, False),
    "ideal": (HTMDesign.IDEAL, True),
}


def word_spec(design: str, seed: int) -> ExperimentSpec:
    """``onchip-index`` at a twentieth of its size: 64 B DRAM values."""
    kind, isolation = DESIGNS[design]
    params = WorkloadParams(
        threads=4,
        txs_per_thread=2,
        value_bytes=64,
        ops_per_tx=4,
        keys=4096,
        initial_fill=2048,
        update_ratio=0.5,
        kind=MemoryKind.DRAM,
    )
    return ExperimentSpec(
        name="pinned:word",
        htm=HTMConfig(
            design=kind,
            signature=SignatureConfig(bits=1024),
            isolation=isolation,
        ),
        benchmarks=mixed_pmdk(params),
        scale=1 / 64,
        cache_scale=1 / 64,
        seed=seed,
    )


def nontx_spec(seed: int) -> ExperimentSpec:
    """Overflowing UHTM transactions next to a word-level co-runner."""
    params = WorkloadParams(
        threads=4,
        txs_per_thread=2,
        value_bytes=4096,
        ops_per_tx=4,
        keys=4096,
        initial_fill=2048,
        update_ratio=0.5,
        kind=MemoryKind.DRAM,
    )
    return ExperimentSpec(
        name="pinned:nontx",
        htm=HTMConfig(
            design=HTMDesign.UHTM,
            signature=SignatureConfig(bits=64),
            isolation=False,
        ),
        benchmarks=mixed_pmdk(params),
        scale=1 / 64,
        cache_scale=1 / 1024,
        membound_instances=1,
        corunner="graphhog",
        seed=seed,
    )


def digest(spec: ExperimentSpec) -> str:
    payload = run_result_to_dict(run_experiment(spec))
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: ``(design, seed) -> SHA-256 of the sorted-key JSON of the run result``.
WORD_SHA256 = {
    ("ideal", 2020): "bb9c4f874085f586e149414b7a0cb5814f82af9d360073ef132357c32f184219",
    ("ideal", 7): "8b800892193e855c64ac3c3f625ed3d24a50047810bb69181c4f9a9898046e69",
    ("llc_bounded", 2020): "f64f44dab9bad56ffc8982ce19952017c4a334fe1133ef8cca47da675c820646",
    ("llc_bounded", 7): "dcf94118489b50219a1a63929981b6b3f41d59533e18aa94c8e9c51f8841a658",
    ("signature_only", 2020): "1944905a5abf861e0807fc434924f27371d5709b91ef8293bf14f48fda6998a2",
    ("signature_only", 7): "6508820d3327e10ad4193fe7e2961f8287eb5e2a0161934504b03dc7f62114ab",
    ("uhtm", 2020): "0bf0b55d4a38ad1a273ff753c634ecb40951b1ca7bdbc848ee0cb835e8073359",
    ("uhtm", 7): "d2d1e2ba487b0d0516c27a149fa62271703d7e17a110c2078865ee652c286144",
    ("uhtm_opt", 2020): "be9bae27575d77b74555e4feadb3e86c404960d36c3216d12023d70c34297e27",
    ("uhtm_opt", 7): "6a6d57874a63c893bfa6b23f1a7621d97d3ba11121d4f531ef3f385a6c175aa9",
}

#: ``seed -> SHA-256`` for :func:`nontx_spec`.
NONTX_SHA256 = {
    2020: "a52a4f788f1ba709380b6765a479084ab47be525e10627d506c019656dea0d3f",
    7: "69f6a725f4cb615e2ad7fa53ccd7fade11381fd4aaa87ae2a099869558dfb2b1",
}


@pytest.mark.parametrize("run_key", sorted(WORD_SHA256), ids=str)
def test_word_path_run_pinned(run_key):
    design, seed = run_key
    assert digest(word_spec(design, seed)) == WORD_SHA256[run_key]


@pytest.mark.parametrize("seed", sorted(NONTX_SHA256))
def test_nontx_word_path_run_pinned(seed):
    assert digest(nontx_spec(seed)) == NONTX_SHA256[seed]
