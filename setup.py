"""Setuptools entry point.

Kept alongside pyproject.toml so the package installs in offline
environments that lack the ``wheel`` package (``python setup.py develop``
performs a legacy editable install without building a wheel).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.2.0",
    description=(
        "CGNP: Community Search via Conditional Graph Neural Processes — "
        "a from-scratch reproduction of Fang et al., ICDE 2023"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy", "networkx"],
)
