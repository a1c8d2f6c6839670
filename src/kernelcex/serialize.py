"""JSON codecs for spaces, points, maps, kernels, spectra, and matrices.

Complex numbers are encoded as [re, im] pairs, complex matrices as nested
arrays of such pairs. Points follow the space convention: a circle angle is
a bare number, a Euclidean point an array, a complex-sphere point an array
of [re, im] pairs, a group element an integer array. A map's parameters are
its dataclass fields. Every ``*_from_json`` decoder fails closed: a
malformed document raises ``ConfigError``, never a bare exception.

``dumps`` writes every document kernelcex emits.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .counterexample import (
    CounterexampleKernel,
    Variant,
    build_adjoint,
    build_shifted,
    build_unitary,
    embed,
)
from .errors import ConfigError
from .fourier import FourierSpectrum
from .kernels import (
    CircleExpCos,
    Composed,
    DotExp,
    Gaussian,
    GroupFourier,
    MatrixKernel,
    OffsetKernel,
    ScalarKernel,
    TorusProduct,
    ZeroKernel,
)
from .spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, Space
from .symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
    OrbitDecomposition,
    SymmetryMap,
)

SCHEMA_VERSION = 1

_MAP_CLASSES = {
    cls.action_kind: cls
    for cls in (
        CircleRotation,
        EuclideanTranslation,
        EuclideanScaling,
        ComplexSphereRotation,
        GroupTranslation,
    )
}


def _float_str(x: float) -> str:
    # float.__repr__, not repr: under numpy 2 repr(np.float64(1.0)) is
    # "np.float64(1.0)". Non-finite values are spelled as json spells them.
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_str(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        # json quotes the value's own spelling: 1.5 -> "1.5", True -> "true".
        return _encode_str(_encode(key, 0))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _complex_array_str(arr: np.ndarray, level: int) -> str:
    """A complex array nested as ``matrix_to_json`` nests a matrix (one list
    level per axis, an [re, im] pair per entry), written from its flat real
    and imaginary parts by one format string, without the nested lists."""
    newline = ["\n" + "  " * (level + k) for k in range(arr.ndim + 2)]
    fmt = f"[{newline[-1]}%s,{newline[-1]}%s{newline[-2]}]"
    for axis in reversed(range(arr.ndim)):
        n, inner = arr.shape[axis], newline[axis + 1]
        fmt = f"[{inner}{(',' + inner).join([fmt] * n)}{newline[axis]}]" if n else "[]"
    parts = np.stack((arr.real, arr.imag), axis=-1).ravel().tolist()
    # str of a finite float is float.__repr__; NaN and the infinities take
    # json's spelling.
    return fmt % (tuple(parts) if np.isfinite(arr).all() else tuple(map(_float_str, parts)))


def _encode(obj, level: int) -> str:
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "\n" + "  " * (level + 1)
        body = ("," + inner).join([_encode(v, level + 1) for v in obj])
        return f"[{inner}{body}\n{'  ' * level}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "\n" + "  " * (level + 1)
        body = ("," + inner).join(
            [f"{_key_str(k)}: {_encode(v, level + 1)}" for k, v in sorted(obj.items())]
        )
        return f"{{{inner}{body}\n{'  ' * level}}}"
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        return _complex_array_str(obj, level)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    A complex ``np.ndarray`` may stand anywhere in ``obj``; it is written
    as ``matrix_to_json`` (or ``complex_to_json`` per entry) would nest it:
    a 1-D array as a list of [re, im] pairs, a 2-D array as a list of rows,
    a 3-D array as a list of matrices. Any other type raises ``TypeError``.
    Unlike ``json``, a reference cycle is not detected; kernelcex documents
    are trees.
    """
    return _encode(obj, 0)


def _decoder(fn):
    """Report a malformed document as a ``ConfigError`` naming the decoder; a
    missing key or a mistyped value raises one of the exceptions caught here."""

    @functools.wraps(fn)
    def decode(*args):
        try:
            return fn(*args)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"{fn.__name__}: malformed input ({type(exc).__name__}: {exc})") from exc

    return decode


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


@_decoder
def complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    re, im = v
    return complex(re, im)


def matrix_to_json(matrix) -> list:
    arr = np.asarray(matrix, dtype=np.complex128)
    return [[complex_to_json(z) for z in row] for row in arr]


@_decoder
def matrix_from_json(rows) -> np.ndarray:
    return np.asarray([[complex_from_json(v) for v in row] for row in rows], dtype=np.complex128)


def space_to_json(space: Space) -> dict:
    if isinstance(space, Circle):
        return {"kind": "circle", "eq_tol": space.eq_tol}
    if isinstance(space, Euclidean):
        return {"kind": "euclidean", "dim": space.dim, "eq_tol": space.eq_tol}
    if isinstance(space, ComplexSphere):
        return {"kind": "complex_sphere", "dim": space.dim, "eq_tol": space.eq_tol}
    if isinstance(space, FiniteAbelian):
        return {"kind": "finite_abelian", "orders": list(space.orders)}
    raise ConfigError(f"unknown space {space!r}")


@_decoder
def space_from_json(data: dict) -> Space:
    kind = data.get("kind")
    if kind == "circle":
        return Circle(eq_tol=float(data.get("eq_tol", Circle().eq_tol)))
    if kind == "euclidean":
        return Euclidean(dim=int(data["dim"]), eq_tol=float(data.get("eq_tol", 1e-9)))
    if kind == "complex_sphere":
        return ComplexSphere(dim=int(data["dim"]), eq_tol=float(data.get("eq_tol", 1e-9)))
    if kind == "finite_abelian":
        return FiniteAbelian(orders=tuple(int(q) for q in data["orders"]))
    raise ConfigError(f"unknown space kind {kind!r}")


def point_to_json(space: Space, point):
    point = space.canonicalize(point)
    if isinstance(space, Circle):
        return float(point)
    if isinstance(space, Euclidean):
        return [float(c) for c in point]
    if isinstance(space, ComplexSphere):
        return [complex_to_json(c) for c in point]
    if isinstance(space, FiniteAbelian):
        return [int(c) for c in point]
    raise ConfigError(f"unknown space {space!r}")


@_decoder
def point_from_json(space: Space, data):
    if isinstance(space, ComplexSphere):
        return space.canonicalize([complex_from_json(c) for c in data])
    return space.canonicalize(data)


def _parameter_names(phi_or_class) -> list[str]:
    """A map's parameters: its dataclass fields but the space and adjoint kind."""
    fields = dataclasses.fields(phi_or_class)
    return [f.name for f in fields if f.name not in ("space", "adjoint_kind")]


def map_to_json(phi: SymmetryMap) -> dict:
    params = {name: getattr(phi, name) for name in _parameter_names(phi)}
    return {
        "space": space_to_json(phi.space),
        "action_kind": phi.action_kind,
        "parameters": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()},
        "adjoint": getattr(phi, "adjoint_kind", None),
    }


@_decoder
def map_from_json(data: dict) -> SymmetryMap:
    space = space_from_json(data["space"])
    kind = data.get("action_kind")
    cls = _MAP_CLASSES.get(kind)
    if cls is None:
        raise ConfigError(f"unknown action kind {kind!r}")
    params = data.get("parameters", {})
    params = {name: params[name] for name in _parameter_names(cls)}
    return cls(space, **params, adjoint_kind=data.get("adjoint"))


def scalar_kernel_to_json(kernel: ScalarKernel) -> dict:
    if isinstance(kernel, CircleExpCos):
        return {"form": "circle_exp_cos", "space": space_to_json(kernel.space)}
    if isinstance(kernel, Gaussian):
        return {
            "form": "gaussian",
            "space": space_to_json(kernel.space),
            "sigma": kernel.sigma,
        }
    if isinstance(kernel, DotExp):
        return {
            "form": "dot_exp",
            "space": space_to_json(kernel.space),
            "scale": kernel.scale,
            "shift": kernel.shift,
        }
    if isinstance(kernel, TorusProduct):
        return {"form": "torus_product", "space": space_to_json(kernel.space)}
    if isinstance(kernel, GroupFourier):
        return {
            "form": "group_fourier",
            "space": space_to_json(kernel.space),
            "coefficients": [complex_to_json(c) for c in kernel.coefficients],
        }
    if isinstance(kernel, Composed):
        return {
            "form": "composed",
            "base": scalar_kernel_to_json(kernel.base),
            "left": map_to_json(kernel.left) if kernel.left is not None else None,
            "right": map_to_json(kernel.right) if kernel.right is not None else None,
        }
    if isinstance(kernel, OffsetKernel):
        return {
            "form": "offset",
            "base": scalar_kernel_to_json(kernel.base),
            "offset": kernel.offset,
        }
    if isinstance(kernel, ZeroKernel):
        return {"form": "zero", "space": space_to_json(kernel.space)}
    raise ConfigError(f"cannot serialize kernel {kernel!r}")


@_decoder
def scalar_kernel_from_json(data: dict) -> ScalarKernel:
    form = data.get("form")
    if form == "circle_exp_cos":
        return CircleExpCos(space_from_json(data["space"]))
    if form == "gaussian":
        return Gaussian(space_from_json(data["space"]), sigma=float(data.get("sigma", 1.0)))
    if form == "dot_exp":
        return DotExp(
            space_from_json(data["space"]),
            scale=float(data.get("scale", 1.0)),
            shift=float(data.get("shift", 0.0)),
        )
    if form == "torus_product":
        return TorusProduct(space_from_json(data["space"]))
    if form == "group_fourier":
        space = space_from_json(data["space"])
        coeffs = tuple(complex_from_json(c) for c in data["coefficients"])
        return GroupFourier(space, coeffs)
    if form == "composed":
        base = scalar_kernel_from_json(data["base"])
        left = map_from_json(data["left"]) if data.get("left") else None
        right = map_from_json(data["right"]) if data.get("right") else None
        return Composed(base, left, right)
    if form == "offset":
        return OffsetKernel(scalar_kernel_from_json(data["base"]), float(data["offset"]))
    if form == "zero":
        return ZeroKernel(space_from_json(data["space"]))
    raise ConfigError(f"unknown kernel form {form!r}")


def matrix_kernel_to_json(kernel: MatrixKernel) -> dict:
    return {
        "space": space_to_json(kernel.space),
        "ell": kernel.ell,
        "entries": [[scalar_kernel_to_json(e) for e in row] for row in kernel.entries],
    }


@_decoder
def matrix_kernel_from_json(data: dict) -> MatrixKernel:
    space = space_from_json(data["space"])
    entries = tuple(
        tuple(scalar_kernel_from_json(e) for e in row) for row in data["entries"]
    )
    return MatrixKernel(space=space, ell=int(data["ell"]), entries=entries)


def counterexample_to_json(cex: CounterexampleKernel) -> dict:
    out = {
        "variant": cex.variant.value,
        "base": scalar_kernel_to_json(cex.base),
        "map": map_to_json(cex.map),
    }
    if cex.origin is not None:
        out["origin"] = point_to_json(cex.as_matrix.space, cex.origin)
    return out


@_decoder
def counterexample_from_json(data: dict) -> CounterexampleKernel:
    base = scalar_kernel_from_json(data["base"])
    phi = map_from_json(data["map"])
    variant = data.get("variant")
    if variant == Variant.UNITARY.value:
        cex = build_unitary(base, phi)
    elif variant == Variant.ADJOINT.value:
        cex = build_adjoint(base, phi)
    elif variant == Variant.SHIFTED_ADJOINT.value:
        origin = point_from_json(base.space, data["origin"])
        cex = build_shifted(base, phi, origin)
    else:
        raise ConfigError(f"unknown counterexample variant {variant!r}")
    ell = data.get("ell")
    if ell is not None and int(ell) != 2:
        filler = scalar_kernel_from_json(data["filler"]) if data.get("filler") else base
        matrix = embed(cex.as_matrix, int(ell), filler)
        return CounterexampleKernel(
            base=cex.base, map=cex.map, variant=cex.variant, as_matrix=matrix, origin=cex.origin
        )
    return cex


@_decoder
def kernel_from_json(data: dict):
    """Dispatch on the config shape: counterexample, matrix grid, or scalar."""
    if "variant" in data:
        return counterexample_from_json(data).as_matrix
    if "entries" in data:
        return matrix_kernel_from_json(data)
    if "form" in data:
        return scalar_kernel_from_json(data)
    raise ConfigError("kernel config needs a 'variant', 'entries', or 'form' field")


def spectrum_to_json(spectrum: FourierSpectrum) -> dict:
    if spectrum.is_matrix:
        coeffs = [matrix_to_json(a) for a in spectrum.coefficients]
    else:
        coeffs = [float(c) for c in spectrum.coefficients]
    return {
        "schema_version": SCHEMA_VERSION,
        "group": list(spectrum.group.orders),
        "coefficients": coeffs,
        "analysis_residual": spectrum.analysis_residual,
    }


@_decoder
def spectrum_from_json(data: dict) -> FourierSpectrum:
    group = FiniteAbelian(orders=tuple(int(q) for q in data["group"]))
    raw = data["coefficients"]
    if raw and isinstance(raw[0], list):
        coeffs = np.stack([matrix_from_json(a) for a in raw])
    else:
        coeffs = np.asarray([float(c) for c in raw])
    return FourierSpectrum(
        group=group,
        coefficients=coeffs,
        analysis_residual=float(data.get("analysis_residual", 0.0)),
    )


def orbit_to_json(space: Space, decomposition: OrbitDecomposition) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "F": list(decomposition.F),
        "tau": {str(k): v for k, v in sorted(decomposition.tau.items())},
        "m": decomposition.m,
        "p": decomposition.p,
        "block_sizes": list(decomposition.block_sizes),
        "z_points": [point_to_json(space, z) for z in decomposition.z_points],
    }
