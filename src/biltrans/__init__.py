"""Bilevel episodic training for few-shot image-to-image translation on
procedurally generated scenes, with a self-contained reverse-mode
autodiff core so meta-gradients are verifiable against finite differences.
"""

__version__ = "0.1.0"
