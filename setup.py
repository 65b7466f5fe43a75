"""Package metadata.

Kept as a plain setup.py (no pyproject.toml) because the offline build
environment lacks the `wheel` package, so `pip install -e .` falls back to
`setup.py develop` via --no-use-pep517.
"""
from setuptools import find_packages, setup

setup(
    name="repro-faq-topology",
    version="1.0.0",
    description=(
        "Reproduction of 'Topology Dependent Bounds For FAQs' (PODS 2019): "
        "a distributed FAQ/semiring query engine with round-exact network "
        "simulation and executable lower bounds"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    # NumPy backs the columnar factor backend (repro.semiring.columnar).
    install_requires=["numpy>=1.22"],
    extras_require={
        # The oracle of the tests and of the differential benches (golden
        # graphs, reference min cuts, Steiner trees, routes and cycle
        # harvests); nothing under src/ imports it.
        "oracle": ["networkx>=2.6"],
        # The optional JIT kernel tier (repro.kernels); without it the
        # "jit" tier transparently resolves to the NumPy implementations.
        "jit": ["numba>=0.57"],
    },
)
