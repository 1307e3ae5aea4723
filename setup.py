"""Packaging metadata for the KNW distinct-elements reproduction.

All metadata lives here (there is no ``pyproject.toml`` in this repo, so
this file is the single source of truth); ``src/repro/_version.py`` holds
the version. The layout is a standard ``src/`` tree::

    pip install -e .            # runtime (numpy only)
    pip install -e ".[bench]"   # + the pytest/pytest-benchmark harness
    pip install -e ".[dev]"     # + the lint/test toolchain (pinned ruff)
"""

import os

from setuptools import find_packages, setup


def _read_version():
    version_path = os.path.join(
        os.path.dirname(__file__), "src", "repro", "_version.py"
    )
    namespace = {}
    with open(version_path, "r", encoding="utf-8") as handle:
        exec(handle.read(), namespace)
    return namespace["__version__"]


def _read_long_description():
    readme_path = os.path.join(os.path.dirname(__file__), "README.md")
    if not os.path.exists(readme_path):
        return ""
    with open(readme_path, "r", encoding="utf-8") as handle:
        return handle.read()


setup(
    name="repro-knw-distinct-elements",
    version=_read_version(),
    description=(
        "Reproduction of Kane-Nelson-Woodruff (PODS 2010) optimal distinct "
        "elements estimation: F0/L0 sketches, Figure-1 baselines, a "
        "NumPy-vectorized batch-ingestion pipeline, and an experiment harness"
    ),
    long_description=_read_long_description(),
    long_description_content_type="text/markdown",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The compiled kernel backend builds its shared library from this
    # bundled C source at first use (a C toolchain is the only requirement).
    package_data={"repro.kernels": ["*.c"]},
    # 3.10 floor: the word-RAM code relies on int.bit_count() (3.10+).
    python_requires=">=3.10",
    install_requires=[
        # Sketch state and the batch-ingestion pipeline (repro.vectorize
        # and every update_batch override) are numpy arrays.
        "numpy>=1.22",
    ],
    extras_require={
        "bench": [
            "pytest>=7.0",
            "pytest-benchmark>=4.0",
        ],
        # The compiled kernel backend needs no Python packages — only a C
        # compiler on PATH (cc/gcc/clang).  The extra exists so
        # ``pip install ".[compiled]"`` documents the intent; the backend
        # is built lazily from the bundled _kernels.c at first use.
        "compiled": [],
        # Developer toolchain: the test runner plus the pinned base
        # linter that backs the CI lint gate (the contract linter,
        # ``python -m repro.lint``, ships with the package and needs
        # nothing beyond numpy).  ruff is pinned exactly so the gate
        # cannot drift as new ruff releases add rules.
        "dev": [
            "pytest>=7.0",
            "hypothesis>=6.0",
            "ruff==0.5.7",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
    ],
)
