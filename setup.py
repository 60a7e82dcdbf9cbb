"""Packaging for the sparse-Hamming-graph NoC reproduction.

Metadata lives here (rather than in a pyproject.toml) so that
``pip install -e . --no-build-isolation`` works on machines without network
access to fetch build backends.  The ``repro`` console script is the
command-line front end of :mod:`repro.experiments`.

The version is single-sourced from ``repro.__version__`` — parsed textually
(not imported) so that building a wheel does not require the runtime
dependencies to be installed.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """Parse ``__version__`` out of ``src/repro/__init__.py``."""
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-sparse-hamming-noc",
    version=read_version(),
    description=(
        "Reproduction of 'Sparse Hamming Graph: A Customizable Network-on-Chip "
        "Topology' with a declarative experiment API"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro=repro.experiments.cli:main",
        ]
    },
)
