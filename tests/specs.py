"""Problem instances shared by the test modules."""

import numpy as np

from fracsteer.model import (
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
    PhiDescriptor,
    ProblemSpec,
)


def make_spec(n=1, alpha=1.5, omega=0.0, T=1.0, r=0.0, impulses=(),
              nonlocal_terms=(), phi_coeffs=None, f=None, B=None, phi_slope=None):
    """An n-mode problem with phi = phi_coeffs (ones when omitted) + s *
    phi_slope (no slope when omitted), f = 0 unless f is given, and B = I
    unless B is given."""
    phi_coeffs = np.ones(n) if phi_coeffs is None else np.asarray(phi_coeffs, float)
    return ProblemSpec(
        alpha=alpha, omega=omega, n_modes=n, horizon=T, delay=r,
        impulses=tuple(impulses), nonlocal_terms=tuple(nonlocal_terms),
        phi=PhiDescriptor(phi_coeffs, None if phi_slope is None else np.asarray(phi_slope, float)),
        f_desc=f if f is not None else NonlinearityDescriptor(),
        B=np.eye(n) if B is None else np.asarray(B, float),
    )


def flagship_spec():
    """The flagship problem of configs/flagship.json."""
    return make_spec(
        n=16, alpha=1.5, omega=1.0, T=1.0, r=0.25,
        impulses=[ImpulseDescriptor(0.5, -1.0)],
        nonlocal_terms=[NonlocalTerm(0.25, 0.3)],
        phi_coeffs=[2.0 ** (-k) for k in range(16)],
        f=NonlinearityDescriptor(
            f1_gain=0.05, f2_gain=0.05, kernel_rate=1.0,
            f1_form="saturating", f2_form="linear",
            L1=0.05, L2=0.05, M1=0.1, holder_p=0.4,
        ),
    )
