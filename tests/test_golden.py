"""Seeded runs against the golden record (`tests/golden.py`)."""

import json

from golden import GOLDEN, build_record, differences, platform_fingerprint


def test_runs_match_the_golden_record(run_config):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = build_record(run_config)
    assert set(got["configs"]) == set(want["configs"])
    if want["platform"] == platform_fingerprint():
        for key, record in want["configs"].items():
            assert got["configs"][key] == record, key
    else:  # another BLAS may round differently: floats to the stored tolerance
        assert differences(want["configs"], got["configs"],
                           want["rel_tol"]) == []


def test_off_platform_comparison_tolerates_rounding_only():
    want = {"metrics_csv": "round,acc\n0,0.5\n", "summary": {"n": 2},
            "devices": [{"adapters_sha256": "ab", "adapters_norm": 1.0,
                         "batch_order": [1, 0]}]}
    rounded = {"metrics_csv": "round,acc\n0,0.5000001\n", "summary": {"n": 2},
               "devices": [{"adapters_sha256": "cd",
                            "adapters_norm": 1.0 + 1e-9,
                            "batch_order": [1, 0]}]}
    assert differences(want, rounded, 1e-6) == []
    for key, value in (("metrics_csv", "round,acc\n1,0.5\n"),
                       ("summary", {"n": 3}),
                       ("devices", [{"adapters_sha256": "ab",
                                     "adapters_norm": 1.01,
                                     "batch_order": [1, 0]}]),
                       ("devices", [{"adapters_sha256": "ab",
                                     "adapters_norm": 1.0,
                                     "batch_order": [0, 1]}])):
        assert differences(want, dict(want, **{key: value}), 1e-6) != []
