// Package tensor provides the small dense-tensor kernel the Flood-Filling
// Network is built on: row-major float32 tensors, 3-D convolution with
// forward and backward passes, pointwise nonlinearities, and SGD with
// momentum. It is a from-scratch stand-in for the TensorFlow ops the paper's
// FFN uses, sized for laptop-scale volumes; wall-clock at cluster scale is
// projected by internal/gpusim.
package tensor

import (
	"fmt"
	"math"

	"chaseci/internal/sim"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps data with a shape; it panics on length mismatch.
func FromData(data []float32, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, t.Size(), len(data)))
	}
	return t
}

// Size returns the element count.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Zero clears all elements in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randomize fills with He-style initialization: normal(0, sqrt(2/fanIn)).
func (t *Tensor) Randomize(rng *sim.RNG, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * std
	}
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !SameShape(t, o) {
		panic("tensor: AddInPlace shape mismatch")
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// ZScore writes src scaled to zero mean and unit variance into dst (the
// standard FFN input conditioning); dst may alias src. The moments are
// sequential float64 sums, so every caller — the FFN's in-place
// Normalize and the data plane's cached normalized twins — produces the
// same bits for the same input.
func ZScore(dst, src []float32) {
	n := float64(len(src))
	if n == 0 {
		return
	}
	var sum, sumsq float64
	for _, x := range src {
		sum += float64(x)
		sumsq += float64(x) * float64(x)
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	std := 1.0
	if variance > 1e-12 {
		std = math.Sqrt(variance)
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = float32((float64(x) - mean) / std)
	}
}

// --- Volumetric (C, D, H, W) layout helpers --------------------------------

// vIdx computes the flat index of (c, z, y, x) in a (C,D,H,W) tensor.
func vIdx(shape []int, c, z, y, x int) int {
	return ((c*shape[1]+z)*shape[2]+y)*shape[3] + x
}

// ReLU applies max(0, x) elementwise, returning a new tensor.
func ReLU(in *Tensor) *Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// ReLUInto writes max(0, x) of in into dst (dst may alias in).
func ReLUInto(dst, in *Tensor) {
	for i, v := range in.Data {
		if v < 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// ReLUBackward masks gradOut where the forward input was non-positive.
func ReLUBackward(in, gradOut *Tensor) *Tensor {
	out := gradOut.Clone()
	for i := range out.Data {
		if in.Data[i] <= 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// ReLUBackwardInto writes gradOut masked by the forward input's sign into
// dst (dst may alias gradOut).
func ReLUBackwardInto(dst, in, gradOut *Tensor) {
	for i, v := range gradOut.Data {
		if in.Data[i] <= 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(in *Tensor) *Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

// SigmoidValue is the scalar logistic function.
func SigmoidValue(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// LogitBCE computes mean binary cross-entropy between logits and {0,1}
// labels, plus the gradient w.r.t. the logits (the numerically stable
// sigmoid+BCE fusion). mask, if non-nil, weights each element (0 excludes).
func LogitBCE(logits, labels, mask *Tensor) (loss float64, grad *Tensor) {
	grad = New(logits.Shape...)
	loss = LogitBCEInto(grad, logits, labels, mask)
	return loss, grad
}

// LogitBCEInto is LogitBCE writing the gradient into a caller-provided
// tensor (overwritten) and returning the loss.
func LogitBCEInto(grad, logits, labels, mask *Tensor) (loss float64) {
	if !SameShape(logits, labels) {
		panic("tensor: LogitBCE shape mismatch")
	}
	grad.Zero()
	count := 0.0
	for i, z := range logits.Data {
		wgt := float32(1)
		if mask != nil {
			wgt = mask.Data[i]
			if wgt == 0 {
				continue
			}
		}
		y := float64(labels.Data[i])
		zf := float64(z)
		// log(1+exp(-|z|)) + max(z,0) - z*y
		loss += float64(wgt) * (math.Log(1+math.Exp(-math.Abs(zf))) + math.Max(zf, 0) - zf*y)
		grad.Data[i] = wgt * (SigmoidValue(z) - float32(y))
		count += float64(wgt)
	}
	if count > 0 {
		loss /= count
		grad.Scale(float32(1 / count))
	}
	return loss
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float32
	Momentum float32

	velocity map[*Tensor]*Tensor
	velBias  map[*[]float32][]float32
}

// NewSGD creates an optimizer.
func NewSGD(lr, momentum float32) *SGD {
	return &SGD{
		LR: lr, Momentum: momentum,
		velocity: make(map[*Tensor]*Tensor),
		velBias:  make(map[*[]float32][]float32),
	}
}

// Step applies one update to param given its gradient.
func (o *SGD) Step(param, grad *Tensor) {
	v, ok := o.velocity[param]
	if !ok {
		v = New(param.Shape...)
		o.velocity[param] = v
	}
	for i := range param.Data {
		v.Data[i] = o.Momentum*v.Data[i] - o.LR*grad.Data[i]
		param.Data[i] += v.Data[i]
	}
}

// StepBias updates a bias vector.
func (o *SGD) StepBias(param *[]float32, grad []float32) {
	v, ok := o.velBias[param]
	if !ok {
		v = make([]float32, len(*param))
		o.velBias[param] = v
	}
	p := *param
	for i := range p {
		v[i] = o.Momentum*v[i] - o.LR*grad[i]
		p[i] += v[i]
	}
}

// VelocityFor returns param's momentum buffer, creating a zero one on first
// use — the hook checkpoint serialization uses to walk optimizer state in
// the network's canonical parameter order.
func (o *SGD) VelocityFor(param *Tensor) *Tensor {
	v, ok := o.velocity[param]
	if !ok {
		v = New(param.Shape...)
		o.velocity[param] = v
	}
	return v
}

// VelocityBiasFor returns a bias vector's momentum buffer, creating a zero
// one on first use.
func (o *SGD) VelocityBiasFor(param *[]float32) []float32 {
	v, ok := o.velBias[param]
	if !ok {
		v = make([]float32, len(*param))
		o.velBias[param] = v
	}
	return v
}
