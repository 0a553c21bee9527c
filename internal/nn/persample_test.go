package nn

import (
	"math"
	"math/rand"

	"repro/internal/mat"
)

// The per-sample training reference: one forward/backward pass per sample,
// every gradient accumulated as one chain over the samples in batch order.
// Train must produce bit-identical weights (the Train parity tests), and
// BenchmarkTrainEpoch{,Maxout}_PerSample time it against the batched step.

// trainPerSample trains model — a *Network or a *MaxoutNetwork — like its
// Train method, but accumulates each mini-batch's gradients one sample at a
// time through the shared runEpochs and optimizer.
func trainPerSample(model any, rng *rand.Rand, xs []mat.Vec, labels []int, cfg TrainConfig) float64 {
	cfg.setDefaults()
	var (
		blocks []paramBlock
		zero   func()
		acc    func(x mat.Vec, label int) float64
	)
	switch n := model.(type) {
	case *Network:
		g := newGradients(n)
		blocks, zero = n.paramBlocks(g), g.zero
		acc = func(x mat.Vec, label int) float64 { return n.accumulate(g, x, label) }
	case *MaxoutNetwork:
		g := newMaxoutGradients(n)
		blocks, zero = n.paramBlocks(g), g.zero
		acc = func(x mat.Vec, label int) float64 { return n.accumulate(g, x, label) }
	default:
		panic("trainPerSample: unsupported model")
	}
	return runEpochs(rng, len(xs), &cfg, blocks, func(batch []int) float64 {
		zero()
		var loss float64
		for _, idx := range batch {
			loss += acc(xs[idx], labels[idx])
		}
		return loss
	})
}

func (g *gradients) zero() {
	for i := range g.dW {
		r, c := g.dW[i].Dims()
		for ri := 0; ri < r; ri++ {
			row := g.dW[i].RawRow(ri)
			for ci := 0; ci < c; ci++ {
				row[ci] = 0
			}
		}
		g.dB[i].Fill(0)
	}
}

// accumulate runs one forward/backward pass for (x, label), adds the
// parameter gradients into g, and returns the sample's cross-entropy loss.
// This is the per-sample reference the batched path must match bit for bit.
func (n *Network) accumulate(g *gradients, x mat.Vec, label int) float64 {
	st := n.forward(x)
	last := len(n.layers) - 1
	probs := Softmax(st.z[last])
	loss := CrossEntropy(probs, label)

	// delta = dL/dz for the softmax + cross-entropy head: p - onehot(label).
	delta := probs.Clone()
	delta[label] -= 1

	for i := last; i >= 0; i-- {
		// dW_i += delta * a_i^T ; dB_i += delta.
		ai := st.a[i]
		dw := g.dW[i]
		for r, dr := range delta {
			if dr == 0 {
				continue
			}
			row := dw.RawRow(r)
			for c, av := range ai {
				row[c] = math.FMA(dr, av, row[c])
			}
		}
		g.dB[i].AddInPlace(delta)
		if i == 0 {
			break
		}
		// Propagate through W_i and the (leaky) ReLU of layer i-1.
		delta = n.layers[i].W.MulVecT(delta)
		z := st.z[i-1]
		for j := range delta {
			if z[j] <= 0 {
				delta[j] *= n.leak
			}
		}
	}
	return loss
}

func (g *maxoutGradients) zero() {
	zeroPair := func(p *gradPair) {
		for r := 0; r < p.dW.Rows(); r++ {
			p.dW.RawRow(r).Fill(0)
		}
		p.dB.Fill(0)
	}
	for li := range g.hidden {
		for p := range g.hidden[li] {
			zeroPair(&g.hidden[li][p])
		}
	}
	zeroPair(&g.out)
}

// accumulate runs one forward/backward pass for (x, label), adds the
// parameter gradients into g, and returns the sample's cross-entropy loss.
// Gradients flow through the winning piece of every unit only — inside the
// sample's locally linear region, the max IS that piece. The loop nesting
// mirrors the batched path's per-piece GEMM schedule (one partial delta sum
// per piece, summed piece-ascending), so both paths accumulate every
// gradient in the same order and stay bit-identical.
func (n *MaxoutNetwork) accumulate(g *maxoutGradients, x mat.Vec, label int) float64 {
	st := n.forward(x)
	probs := Softmax(st.logits)
	loss := CrossEntropy(probs, label)
	delta := probs.Clone()
	delta[label] -= 1

	// Read-out layer: dW += delta ⊗ h_last ; dB += delta.
	hlast := st.acts[len(st.acts)-1]
	for r, dr := range delta {
		row := g.out.dW.RawRow(r)
		for c, av := range hlast {
			row[c] = math.FMA(dr, av, row[c])
		}
	}
	g.out.dB.AddInPlace(delta)

	// Backprop into the last hidden activation, then through the winners.
	gv := n.out.W.MulVecT(delta)
	for li := len(n.hidden) - 1; li >= 0; li-- {
		l := n.hidden[li]
		in := st.acts[li]
		win := st.winners[li]
		var next mat.Vec
		if li > 0 {
			next = mat.NewVec(len(in))
		}
		for p := range l.Pieces {
			gp := &g.hidden[li][p]
			var sp mat.Vec
			if li > 0 {
				sp = mat.NewVec(len(in))
			}
			for j, gj := range gv {
				if win[j] != p {
					continue
				}
				row := gp.dW.RawRow(j)
				for c, iv := range in {
					row[c] = math.FMA(gj, iv, row[c])
				}
				gp.dB[j] += gj
				if li > 0 {
					wrow := l.Pieces[p].W.RawRow(j)
					for c, wv := range wrow {
						sp[c] = math.FMA(gj, wv, sp[c])
					}
				}
			}
			if li > 0 {
				next.AddInPlace(sp)
			}
		}
		if li > 0 {
			gv = next
		}
	}
	return loss
}
