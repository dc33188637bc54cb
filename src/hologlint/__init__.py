"""Specular hologram surface synthesis and glint simulation.

Design surfaces that steer specular glints so a viewer perceives floating
3D points: exact conic/oval foliations, fabricable ridged surfaces and
toolpath stripings, plus a simulator that finds glints and triangulates the
perceived points back out.
"""

from .errors import (
    DegenerateGeometryError,
    DomainError,
    EnvelopeError,
    HologlintError,
    HostEvaluationError,
    ResolutionError,
    RootFindError,
    SceneParseError,
    ShellTooThinError,
    SightlineMissError,
    SingularConfigurationError,
    UnmachinableProfileError,
    UnsupportedConfigurationError,
)
from .foliation import (
    CartesianOval,
    ConicKind,
    ConicSurface,
    Sheet,
    classify_member,
    member_through,
    oval_radial_solve,
    surface_point_and_normal,
)
from .geom import (
    REFLECTION,
    DirectionalLight,
    EyeAtInfinity,
    InfinityView,
    LineView,
    Media,
    NormalFieldHost,
    OrbitView,
    PlaneHost,
    PointLight,
    SphereHost,
    TangentBasis,
    colinearity_residual,
    conformance_distance,
    normality_residual,
    normality_residuals,
    sightline_host_intersection,
    vec3,
)
from .ridging import (
    FabricationParams,
    Mesh,
    Ridge,
    RidgedSurface,
    build_ridging,
    crop_ridging,
    mesh_ridging,
)
from .scene import SceneSpec, format_scene, parse_scene
from .simulate import (
    Glint,
    GlintMap,
    RasterParams,
    TriangulationResult,
    Verification,
    find_glints,
    render_glintmap,
    triangulate,
    verify_suites,
)
from .striping import (
    ArcFit,
    BitProfile,
    Stipple,
    StripeArc,
    Striping,
    Toolpath,
    bit_profile_for,
    circular_arc_fit,
    conforming_tangent,
    hyperbolic_toolpath,
    integrate_toolpath,
    make_striping,
    orthogonal_tangent,
)

__version__ = "0.1.0"
