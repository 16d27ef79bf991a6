from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Cost models for join queries in spatial databases (ICDE 1998) "
        "- full reproduction"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"dev": ["pytest", "hypothesis"]},
)
