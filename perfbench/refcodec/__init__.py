"""Frozen copy of the meshpress format-1 codec, the benchmark's timing
reference.

The modules are verbatim copies of ``meshpress`` codec, entropy,
_coder_py, hierarchy, mesh, quantize and wavelet as they stood when the
benchmark was defined. The benchmark times every operation of the
current package next to the same operation run by this copy, in the
same process, and reports the ratio; host speed changes cancel out of
it. Never edit these files: every ratio ever reported is relative to
them.
"""
