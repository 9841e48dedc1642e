"""Repo-root pytest configuration.

Lives at the root (not under ``tests/``) so the option is registered
whichever test path is given on the command line — pytest only honours
``pytest_addoption`` in *initial* conftests.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the eBPF .expected golden files (the corpus and the "
        "library programs) from current toolchain output instead of "
        "asserting against them (see tests/ebpf/test_corpus.py, "
        "tests/ebpf/test_easm.py and CONTRIBUTING.md)",
    )
