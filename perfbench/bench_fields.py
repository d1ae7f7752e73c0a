"""Field specifications shared by the benchmark and its set-up probe.

A spec is a plain dict, so that it crosses a process boundary as JSON:

* ``{"kind": "scheme1" | "scheme2", "q1": int, "q2": int, "L": float}``
* ``{"kind": "wall", "thetaL": float, "thetaR": float, "L": float}``
* ``{"kind": "tabulated", "path": str}``

Nothing here imports spinwire at module level: the set-up probe times
``import spinwire`` itself and must not have it imported beforehand.
"""

from __future__ import annotations


def build_field(spec: dict):
    """The spinwire field object a spec describes, built through the public API."""
    import spinwire as sw

    kind = spec["kind"]
    if kind == "scheme1":
        return sw.scheme1_field(spec["q1"], spec["q2"], spec["L"])
    if kind == "scheme2":
        return sw.scheme2_field(spec["q1"], spec["q2"], spec["L"])
    if kind == "wall":
        return sw.magnetic_wall_field(spec["thetaL"], spec["thetaR"], spec["L"])
    if kind == "tabulated":
        return sw.load_profile(spec["path"])
    raise ValueError(f"unknown field kind {kind!r}")


def cli_flags(spec: dict) -> list[str]:
    """The ``spinwire sweep`` flags that select the same field."""
    kind = spec["kind"]
    if kind in ("scheme1", "scheme2"):
        return ["--scheme", kind, "--q1", str(spec["q1"]), "--q2", str(spec["q2"]),
                "--L", repr(float(spec["L"]))]
    if kind == "wall":
        return ["--scheme", "wall", "--thetaL", repr(float(spec["thetaL"])),
                "--thetaR", repr(float(spec["thetaR"])), "--L", repr(float(spec["L"]))]
    if kind == "tabulated":
        return ["--scheme", "tabulated:" + spec["path"]]
    raise ValueError(f"unknown field kind {kind!r}")


def label(spec: dict) -> str:
    """Short human-readable name of a spec, used in messages and reference keys."""
    kind = spec["kind"]
    if kind in ("scheme1", "scheme2"):
        return f"{kind}(q1={spec['q1']},q2={spec['q2']},L={spec['L']:.6g})"
    if kind == "wall":
        return f"wall(thetaL={spec['thetaL']:.6g},thetaR={spec['thetaR']:.6g},L={spec['L']:.6g})"
    return f"tabulated({spec['path'].rsplit('/', 1)[-1]})"
