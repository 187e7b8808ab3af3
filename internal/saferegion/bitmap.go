package saferegion

import (
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/pyramid"
)

// BitmapResult is the outcome of a GBSR/PBSR computation.
type BitmapResult struct {
	// Bitmap is the encoded safe region to ship to the client.
	Bitmap *pyramid.Bitmap
	// IntersectionTests counts rect-vs-alarm tests performed, feeding the
	// server cost model.
	IntersectionTests int
}

// ComputeBitmap computes the bitmap-encoded safe region of the grid cell
// against the relevant alarm regions (paper §4). params.Height = 1 yields
// the GBSR; greater heights the PBSR. A cell (at any pyramid level) is
// marked safe only if it touches no alarm region at all — closed
// intersection — which makes the encoding sound for boundary positions.
//
// precomputed, when non-nil, is the decoded bitmap of the same cell and
// split factors covering a fixed alarm subset (the public-alarm
// precomputation of §4.2). pyramid.Encode walks it in lockstep with the
// cells it emits, so each cell costs one pyramid probe for that whole
// subset — cells it already blocks fully are not tested further — and
// alarms lists only the alarms it does not cover.
func ComputeBitmap(cell geom.Rect, params pyramid.Params, alarms []geom.Rect, precomputed *pyramid.Region) (BitmapResult, error) {
	res := BitmapResult{}
	cover := func(r geom.Rect, cov pyramid.Coverage) pyramid.Coverage {
		if precomputed != nil {
			res.IntersectionTests++ // one pyramid probe charged
			if cov == pyramid.CoverFull {
				return cov
			}
		}
		for _, a := range alarms {
			res.IntersectionTests++
			if !a.Intersects(r) {
				continue
			}
			if a.ContainsRect(r) {
				return pyramid.CoverFull
			}
			cov = pyramid.CoverPartial
		}
		return cov
	}
	bm, err := pyramid.Encode(cell, params, precomputed, cover)
	if err != nil {
		return BitmapResult{}, err
	}
	res.Bitmap = bm
	return res, nil
}
