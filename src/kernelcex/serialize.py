"""JSON codecs for spaces, points, maps, kernels, spectra, and matrices.

Complex numbers are encoded as [re, im] pairs, complex matrices as nested
arrays of such pairs. Points follow the space convention: a circle angle is
a bare number, a Euclidean point an array, a complex-sphere point an array
of [re, im] pairs, a group element an integer array. Every ``*_from_json``
decoder fails closed: a malformed document raises ``ConfigError``, never a
bare exception.

One rule codes spaces, scalar kernels, maps and matrix kernels: a document
holds a tag (``kind``, ``form`` or ``action_kind``) and the dataclass fields
(a map's but space and adjoint under ``parameters``). A field without a
default is required, and a value is decoded by its field's declared type (a
union's by its first member's; the constructor checks that the space fits).
Any other key is refused by name (``_refuse_unknown``), in these documents,
in counterexamples, spectra, point files and suite configs alike.

One field rule (``_field``) reads every number: in these documents, in
spectra, in point lists and in suite configs. A bool or a string is never a
number, an int field takes an integral float (``2.0`` is 2), and a float
field only a finite number. A refusal is a ``ConfigError`` that names the
field as the document spells it.

``dumps`` writes every document kernelcex emits.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
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
from .spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, Space, cyclic_orders, field_types
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

_SPACES = {
    "circle": Circle,
    "euclidean": Euclidean,
    "complex_sphere": ComplexSphere,
    "finite_abelian": FiniteAbelian,
}
_KERNELS = {
    "circle_exp_cos": CircleExpCos,
    "gaussian": Gaussian,
    "dot_exp": DotExp,
    "torus_product": TorusProduct,
    "group_fourier": GroupFourier,
    "composed": Composed,
    "offset": OffsetKernel,
    "zero": ZeroKernel,
}
_MAPS = {
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
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"{fn.__name__}: malformed input ({type(exc).__name__}: {exc})") from exc

    return decode


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


@_decoder
def complex_from_json(v) -> complex:
    """A bare real number or an [re, im] pair; a bool is not a number here."""
    if isinstance(v, (list, tuple)):
        re, im = v
        return complex(_number(float, re), _number(float, im))
    return complex(_number(float, v))


def matrix_to_json(matrix) -> list:
    return _to_json(np.asarray(matrix, dtype=np.complex128))


@_decoder
def matrix_from_json(rows) -> np.ndarray:
    return np.asarray([[complex_from_json(v) for v in row] for row in rows], dtype=np.complex128)


def space_to_json(space: Space) -> dict:
    return _tagged_to_json(space, "kind", _SPACES)


@_decoder
def space_from_json(data: dict) -> Space:
    return _from_fields(_tagged_class(data.get("kind"), _SPACES, "space kind"), data, "kind")


def point_to_json(space: Space, point):
    return _to_json(space.canonicalize(point))


# The name and the declared type of a point of each space. A bare integer
# passes as a lone number: an element of a one-factor group.
_POINT_FIELDS = {
    Circle: ("circle angle", float),
    Euclidean: ("coordinates", tuple[float, ...]),
    ComplexSphere: ("coordinates", tuple[complex, ...]),
    FiniteAbelian: ("group element", tuple[int, ...]),
}


@_decoder
def point_from_json(space: Space, data):
    return space.canonicalize(_field(*_POINT_FIELDS[type(space)], data))


def map_to_json(phi: SymmetryMap) -> dict:
    params = _fields_to_json(phi)
    space, adjoint = params.pop("space"), params.pop("adjoint_kind")
    return {"space": space, "action_kind": phi.action_kind, "parameters": params, "adjoint": adjoint}


@_decoder
def map_from_json(data: dict) -> SymmetryMap:
    _refuse_unknown(data, ("space", "action_kind", "parameters", "adjoint"), "map")
    space = space_from_json(data["space"])
    cls = _tagged_class(data.get("action_kind"), _MAPS, "action kind")
    # An absent "adjoint" means no partner, whatever the class default.
    return _from_fields(cls, data.get("parameters", {}), space=space, adjoint_kind=data.get("adjoint"))


def scalar_kernel_to_json(kernel: ScalarKernel) -> dict:
    return _tagged_to_json(kernel, "form", _KERNELS)


@_decoder
def scalar_kernel_from_json(data: dict) -> ScalarKernel:
    return _from_fields(_tagged_class(data.get("form"), _KERNELS, "kernel form"), data, "form")


def _tagged_class(tag, table: dict, what: str) -> type:
    cls = table.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ConfigError(f"unknown {what} {tag!r}")
    return cls


def _tagged_to_json(obj, key: str, table: dict) -> dict:
    for tag, cls in table.items():
        if type(obj) is cls:
            return {key: tag, **_fields_to_json(obj)}
    raise ConfigError(f"cannot serialize {obj!r}")


def _fields_to_json(obj) -> dict:
    return {f.name: _to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _to_json(value):
    """The one value encoder: codec types by their codec, sequences as lists."""
    for base, encode, _ in _CODECS:
        if isinstance(value, base):
            return encode(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


def _refuse_unknown(doc: dict, known, what: str) -> None:
    """Refuse, by name, every key of ``doc`` that is not in ``known``."""
    unknown = [k for k in doc if k not in known]
    if unknown:
        raise ConfigError(f"{what}: unknown keys {unknown}")


def _from_fields(cls, doc: dict, tag: str | None = None, **given):
    """``cls`` from ``given`` and ``doc``; a missing required field is a
    ``KeyError``, and a key of ``doc`` other than ``tag`` that names no
    other field a ``ConfigError``."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _refuse_unknown(doc, {tag, *(f.name for f in fields)}, cls.__name__)
    types = field_types(cls)
    for f in fields:
        if f.name in doc:
            given[f.name] = _field(f.name, types[f.name], doc[f.name])
        elif f.default is dataclasses.MISSING:
            raise KeyError(f.name)
    return cls(**given)


def _field(name: str, tp, value):
    """The field rule: ``value`` decoded by its field's declared type ``tp``.
    A value the rule refuses is a ``ConfigError`` that names the field, after
    the fields it is nested in (``space: dim: ...``)."""
    try:
        return _decode(tp, value)
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _decode(tp, value):
    """A field value decoded by the field's declared type ``tp``."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        # A list is decoded entry by entry. A lone real number is left to
        # the class's constructor, which takes it where it means a 1-tuple.
        if args[0] in (float, int) and not isinstance(value, (list, tuple)):
            return _number(args[0], value)
        return tuple(_decode(args[0], v) for v in value)
    if args:
        # A union: null is None where None is a member; any other value is
        # read by the first member's codec, and the constructor checks the rest.
        return None if value is None and type(None) in args else _decode(args[0], value)
    for base, _, decode in _CODECS:
        if issubclass(tp, base):
            return decode(value)
    return _number(tp, value)


def _number(tp, value):
    """``value`` as a ``tp`` (float or int). A bool, a string, NaN, an
    infinity, a non-integral number for an int field and an int beyond the
    float range for a float field raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise TypeError(f"expected an integer, got non-integral {value!r}")
    return tp(value)


# (type, encoder, decoder) of every value type that is not a JSON scalar.
_CODECS = (
    (Space, space_to_json, space_from_json),
    (ScalarKernel, scalar_kernel_to_json, scalar_kernel_from_json),
    (SymmetryMap, map_to_json, map_from_json),
    (complex, complex_to_json, complex_from_json),
)


@_decoder
def matrix_kernel_from_json(data: dict) -> MatrixKernel:
    return _from_fields(MatrixKernel, data)


def counterexample_to_json(cex: CounterexampleKernel) -> dict:
    out = {
        "variant": cex.variant.value,
        "base": scalar_kernel_to_json(cex.base),
        "map": map_to_json(cex.map),
    }
    if cex.origin is not None:
        out["origin"] = point_to_json(cex.as_matrix.space, cex.origin)
    if cex.as_matrix.ell > 2:
        out["ell"] = cex.as_matrix.ell
        out["filler"] = scalar_kernel_to_json(cex.as_matrix.entries[2][2])
    return out


@_decoder
def counterexample_from_json(data: dict) -> CounterexampleKernel:
    _refuse_unknown(data, ("variant", "base", "map", "origin", "ell", "filler"), "counterexample")
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
    ell = _field("ell", int | None, data.get("ell"))
    if ell is not None and ell != 2:
        filler = scalar_kernel_from_json(data["filler"]) if data.get("filler") else base
        return dataclasses.replace(cex, as_matrix=embed(cex.as_matrix, ell, filler))
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
    _refuse_unknown(data, ("schema_version", "group", "coefficients", "analysis_residual"), "spectrum")
    group = FiniteAbelian(cyclic_orders(_field("group", tuple[int, ...], data["group"]), "group"))
    raw = data["coefficients"]
    if raw and isinstance(raw[0], list):
        coeffs = np.stack([matrix_from_json(a) for a in raw])
    else:
        coeffs = np.asarray([_field("coefficients", float, c) for c in raw])
    return FourierSpectrum(
        group=group,
        coefficients=coeffs,
        analysis_residual=_field("analysis_residual", float, data.get("analysis_residual", 0.0)),
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
