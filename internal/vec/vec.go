// Package vec provides the small fixed-size linear-algebra types used by the
// RoSÉ environment simulator: 3-vectors, 3x3 matrices, and unit quaternions.
//
// All types are value types; operations return new values and never mutate
// their receivers, so they are safe to share across goroutines.
//
// Every float product is written float64(x*y), which rounds it: on arm64
// Go otherwise fuses x*y + z into one rounding (FMADDD), also across an
// inlined call such as p.Add(v.Scale(dt)), and results would differ from
// amd64's. On amd64 the conversions change nothing.
package vec

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector in a right-handed, Z-up world frame
// (X forward, Y left, Z up) unless documented otherwise.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Zero3 is the zero vector.
var Zero3 = Vec3{}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 {
	return Vec3{float64(v.X * s), float64(v.Y * s), float64(v.Z * s)}
}

// Neg returns −v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return float64(v.X*w.X) + float64(v.Y*w.Y) + float64(v.Z*w.Z) }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		float64(v.Y*w.Z) - float64(v.Z*w.Y),
		float64(v.Z*w.X) - float64(v.X*w.Z),
		float64(v.X*w.Y) - float64(v.Y*w.X),
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Unit returns v normalized to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Mul returns the component-wise (Hadamard) product of v and w.
func (v Vec3) Mul(w Vec3) Vec3 {
	return Vec3{float64(v.X * w.X), float64(v.Y * w.Y), float64(v.Z * w.Z)}
}

// Clamp limits every component of v to [-lim, lim]; lim must be >= 0.
func (v Vec3) Clamp(lim float64) Vec3 {
	return Vec3{clamp(v.X, -lim, lim), clamp(v.Y, -lim, lim), clamp(v.Z, -lim, lim)}
}

// XY returns v with its Z component zeroed (projection onto the ground plane).
func (v Vec3) XY() Vec3 { return Vec3{v.X, v.Y, 0} }

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 { return clamp(x, lo, hi) }

// Mat3 is a 3x3 matrix in row-major order.
type Mat3 [3][3]float64

// Identity3 returns the 3x3 identity matrix.
func Identity3() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		float64(m[0][0]*v.X) + float64(m[0][1]*v.Y) + float64(m[0][2]*v.Z),
		float64(m[1][0]*v.X) + float64(m[1][1]*v.Y) + float64(m[1][2]*v.Z),
		float64(m[2][0]*v.X) + float64(m[2][1]*v.Y) + float64(m[2][2]*v.Z),
	}
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				r[i][j] += float64(m[i][k] * n[k][j])
			}
		}
	}
	return r
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// Quat is a unit quaternion representing a rotation, stored as w + xi + yj + zk.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat returns the identity rotation.
func IdentityQuat() Quat { return Quat{W: 1} }

// QuatFromAxisAngle builds the quaternion rotating by angle (radians) about
// the given axis. The axis need not be normalized.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	a := axis.Unit()
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: float64(a.X * s), Y: float64(a.Y * s), Z: float64(a.Z * s)}
}

// QuatFromEuler builds a quaternion from roll (about X), pitch (about Y), and
// yaw (about Z) applied in Z-Y-X (yaw-pitch-roll) order, the aerospace
// convention used by the flight controller.
func QuatFromEuler(roll, pitch, yaw float64) Quat {
	sr, cr := math.Sincos(roll / 2)
	sp, cp := math.Sincos(pitch / 2)
	sy, cy := math.Sincos(yaw / 2)
	return Quat{
		W: float64(cr*cp*cy) + float64(sr*sp*sy),
		X: float64(sr*cp*cy) - float64(cr*sp*sy),
		Y: float64(cr*sp*cy) + float64(sr*cp*sy),
		Z: float64(cr*cp*sy) - float64(sr*sp*cy),
	}
}

// Euler returns the roll, pitch, yaw angles (Z-Y-X convention) of q.
func (q Quat) Euler() (roll, pitch, yaw float64) {
	// roll (x-axis rotation)
	sinr := 2 * (float64(q.W*q.X) + float64(q.Y*q.Z))
	cosr := 1 - float64(2*(float64(q.X*q.X)+float64(q.Y*q.Y)))
	roll = math.Atan2(sinr, cosr)

	// pitch (y-axis rotation)
	sinp := 2 * (float64(q.W*q.Y) - float64(q.Z*q.X))
	if math.Abs(sinp) >= 1 {
		pitch = math.Copysign(math.Pi/2, sinp)
	} else {
		pitch = math.Asin(sinp)
	}

	// yaw (z-axis rotation)
	siny := 2 * (float64(q.W*q.Z) + float64(q.X*q.Y))
	cosy := 1 - float64(2*(float64(q.Y*q.Y)+float64(q.Z*q.Z)))
	yaw = math.Atan2(siny, cosy)
	return roll, pitch, yaw
}

// Mul returns the quaternion product q·r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: float64(q.W*r.W) - float64(q.X*r.X) - float64(q.Y*r.Y) - float64(q.Z*r.Z),
		X: float64(q.W*r.X) + float64(q.X*r.W) + float64(q.Y*r.Z) - float64(q.Z*r.Y),
		Y: float64(q.W*r.Y) - float64(q.X*r.Z) + float64(q.Y*r.W) + float64(q.Z*r.X),
		Z: float64(q.W*r.Z) + float64(q.X*r.Y) - float64(q.Y*r.X) + float64(q.Z*r.W),
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(float64(q.W*q.W) + float64(q.X*q.X) + float64(q.Y*q.Y) + float64(q.Z*q.Z))
}

// Unit returns q normalized to unit magnitude; the zero quaternion maps to
// the identity rotation.
func (q Quat) Unit() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Rotate applies the rotation q to vector v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q * (0,v) * q⁻¹, expanded for efficiency.
	u := Vec3{q.X, q.Y, q.Z}
	s := q.W
	return u.Scale(2 * u.Dot(v)).
		Add(v.Scale(float64(s*s) - u.Dot(u))).
		Add(u.Cross(v).Scale(2 * s))
}

// Mat returns the rotation matrix equivalent of q.
func (q Quat) Mat() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		{1 - float64(2*(float64(y*y)+float64(z*z))), 2 * (float64(x*y) - float64(w*z)), 2 * (float64(x*z) + float64(w*y))},
		{2 * (float64(x*y) + float64(w*z)), 1 - float64(2*(float64(x*x)+float64(z*z))), 2 * (float64(y*z) - float64(w*x))},
		{2 * (float64(x*z) - float64(w*y)), 2 * (float64(y*z) + float64(w*x)), 1 - float64(2*(float64(x*x)+float64(y*y)))},
	}
}

// Integrate advances orientation q by body angular velocity omega (rad/s)
// over dt seconds using first-order quaternion integration, renormalizing.
func (q Quat) Integrate(omega Vec3, dt float64) Quat {
	dq := Quat{W: 0, X: omega.X, Y: omega.Y, Z: omega.Z}
	qd := q.Mul(dq)
	out := Quat{
		W: q.W + float64(0.5*qd.W*dt),
		X: q.X + float64(0.5*qd.X*dt),
		Y: q.Y + float64(0.5*qd.Y*dt),
		Z: q.Z + float64(0.5*qd.Z*dt),
	}
	return out.Unit()
}

// Yaw returns only the yaw (heading) angle of q in radians.
func (q Quat) Yaw() float64 {
	_, _, yaw := q.Euler()
	return yaw
}

// WrapAngle wraps an angle to (−π, π].
func WrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }

// ToDeg converts radians to degrees.
func ToDeg(r float64) float64 { return r * 180 / math.Pi }

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + float64((b-a)*t) }
