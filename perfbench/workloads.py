"""Benchmark workloads: scenario mappings generated from a seed.

Each workload is one scenario driven through the public API, the same work as
one ``openmax run`` or ``openmax size-est`` call.  The benchmark builds the
config mapping from the workload and the ``--seed`` argument; the program only
ever sees the YAML text of that mapping.

All three share a Barabasi-Albert topology grown from a 5-node line with two
edges per new node, and ``pool_random`` churn over the most recently added
quarter of the nodes with activation probability 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "consensus" or "size_estimation"
    protocol: dict
    target_n: int
    horizon: int
    every: int
    default_seed: int
    inputs: dict  # the "signals" (consensus) or "dse" (size estimation) section
    # sha256 of summary.json (Monte Carlo fields removed) and trace.csv at
    # ``default_seed``; None skips the digest check.
    digests: tuple[str, str] | None = None
    require_agreement: bool = False  # every window's steady estimates agree exactly

    @property
    def pool_size(self) -> int:
        return self.target_n // 4

    def digests_at(self, seed: int) -> tuple[str, str] | None:
        """The digests to compare at ``seed``: only the default seed has them."""
        return self.digests if seed == self.default_seed else None

    def mapping(self, seed: int) -> dict:
        """The scenario config for ``seed``; equal seeds give equal configs."""
        section = "signals" if self.kind == "consensus" else "dse"
        return {
            "name": self.name,
            "kind": self.kind,
            "seed": int(seed),
            "horizon": self.horizon,
            "dwell": self.every,
            "protocol": dict(self.protocol),
            "topology": {
                "kind": "barabasi_albert",
                "seed_line": 5,
                "target_n": self.target_n,
                "edges_per_new_node": 2,
            },
            "churn": {
                "kind": "pool_random",
                "pool_size": self.pool_size,
                "every": self.every,
                "activation_probability": 0.5,
            },
            section: dict(self.inputs),
        }


_DSE = {"p": 20, "mc_trials": 2000}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sizeest-approx-ba3000",
            kind="size_estimation",
            protocol={"mode": "max", "variant": "approximate", "alpha": 0.01},
            target_n=3000,
            horizon=240,
            every=60,
            default_seed=7,
            inputs=_DSE,
            digests=(
                "8932ffbff6b74b723d376190296c42ef2539e1b60612315782053d19afbfab67",
                "c2d7fcd0e91142583689a60cd2b6b96c09378bdbf544831e2bb99186fc8012be",
            ),
        ),
        Workload(
            name="sizeest-exact-ba3000",
            kind="size_estimation",
            protocol={"mode": "max", "variant": "exact", "delta": 12},
            target_n=3000,
            horizon=240,
            every=60,
            default_seed=7,
            inputs=_DSE,
            digests=(
                "efb89d28f00b9c7f9c2f9d2b825030e3ab47003aa605051dba2808a0fe7106b4",
                "8b461ff569dadedd79c35b6c6007752de2b8d0eec5804125c0598fbcf0d71818",
            ),
            require_agreement=True,
        ),
        Workload(
            name="track-exact-min-ba500",
            kind="consensus",
            protocol={"mode": "min", "variant": "exact", "delta": 12},
            target_n=500,
            horizon=1000,
            every=200,
            default_seed=11,
            inputs={
                "slope_bound": 0.02,
                "default": {
                    "kind": "random_walk_clamped",
                    "step_bound": 0.02,
                    "lo": -1,
                    "hi": 1,
                },
            },
            digests=(
                "39195ef5edae8ff289241bf417044a7cda2844b559168fa31227730d418a538a",
                "d114d8b77ab7b926fd8ec85b310cf81fdb48602969a33abcb47ae89075422e7c",
            ),
        ),
    )
}
