"""Span tracer for the cosep benchmark.

Runs one ``cosep`` CLI command in this process after rebinding every
public function of the cosep modules to a timing wrapper, then writes the
recorded spans as JSON:

    python3 bench/tracer.py SPANS.json make-data -c cosep.json

Only this file records spans; the program itself is unchanged.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 at the top).  Names are ``<module>.<function>``; each recorded
autograd node also gets a ``<op>/bwd`` span around its backward closure,
and convolutions carry the parameter block of their kernel, as in
``tensor.conv2d/aud.u0`` and ``tensor.conv2d/aud.u0/bwd``.

Functions imported by name into other modules (``from .checkpoint import
save_tensors``) are rebound at every binding site, so no call escapes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "toyworld", "dsp", "tensor", "avnets", "trainer",
          "disentangle", "metrics", "nmf", "checkpoint")

# methods traced on their class, besides every public module-level function
METHODS = (("tensor", "Adam", "step"), ("avnets", "ImageNet", "maps"),
           ("avnets", "ModelBundle", "__init__"))


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list = []
        self.counts = {"graph_nodes": 0, "image_forward_graph": 0, "image_frames_nograd": 0}
        self._stack: list = []
        self._labels: dict = {}   # id(conv kernel tensor) -> parameter block name
        self._keep: list = []     # holds labelled tensors so their ids stay unique
        # called with (result, args) after the traced function returns
        self.after = {
            # image-net passes that record a graph, i.e. training passes
            "avnets.image_forward": lambda out, args: self._count(
                "image_forward_graph", int(out[2].requires_grad)),
            # frames through the image net under no_grad, i.e. inference
            "avnets.ImageNet.maps": lambda out, args: self._count(
                "image_frames_nograd", 0 if out.requires_grad else args[1].shape[0]),
            "avnets.ModelBundle.__init__": lambda out, args: self._label(args[0]),
        }

    def _count(self, key, n):
        self.counts[key] += n

    def _label(self, bundle):
        for pname, t in bundle.params().items():
            if pname.endswith(".w"):
                self._labels[id(t)] = pname[:-2]
                self._keep.append(t)

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def wrap(self, name, fn):
        after = self.after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if after is not None:
                after(out, args)
            return out
        return traced

    def wrap_op(self, name, fn, tensor_cls):
        """Autograd op: time the forward call and the backward closure of
        the node it records, and count recorded nodes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if name == "tensor.conv2d":
                w = args[1] if len(args) > 1 else kwargs["w"]
                span = f"{name}/{self._labels.get(id(w), '?')}"
            out = self.call(span, fn, args, kwargs)
            bw = out._backward if isinstance(out, tensor_cls) else None
            if bw is not None and not hasattr(bw, "__wrapped__"):
                self.counts["graph_nodes"] += 1
                out._backward = self.wrap(f"{span}/bwd", bw)
            return out
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def install(tracer: Tracer) -> None:
    mods = {layer: importlib.import_module(f"cosep.{layer}") for layer in LAYERS}
    tensor_cls = mods["tensor"].Tensor
    wrapped: dict = {}   # id(original function) -> (original, wrapper)
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = (tracer.wrap_op(name, obj, tensor_cls) if layer == "tensor"
                       else tracer.wrap(name, obj))
            wrapped[id(obj)] = (obj, wrapper)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from cosep import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
