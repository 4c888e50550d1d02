package grid

import "math"

// Raycast traverses the grid from world point (ox, oy) along heading theta
// and returns the distance to the first occupied cell, capped at maxRange.
// It is the particle filter's single hottest operation: the paper attributes
// 67-78% of pfl's execution time to exactly this map traversal.
func (g *Grid2D) Raycast(ox, oy, theta, maxRange float64) float64 {
	d, _ := g.RaycastCells(ox, oy, theta, maxRange)
	return d
}

// RaycastCells behaves like Raycast but additionally counts the number of
// cells visited, feeding the harness's memory-touch counters.
//
// The implementation is an Amanatides-Woo DDA voxel walk: it visits each
// crossed cell exactly once, preserving the "checking map cells that are
// nearby each other" spatial locality the paper highlights.
func (g *Grid2D) RaycastCells(ox, oy, theta, maxRange float64) (dist float64, cells int) {
	dx := math.Cos(theta)
	dy := math.Sin(theta)
	x, y := g.WorldToCell(ox, oy)
	if g.Occupied(x, y) {
		return 0, 1
	}

	// Per-axis step direction and the parametric distance to the next cell
	// boundary (tMax*) and between boundaries (tDelta*), in world units.
	stepX, stepY := 1, 1
	if dx < 0 {
		stepX = -1
	}
	if dy < 0 {
		stepY = -1
	}
	res := g.Resolution
	tMaxX, tDeltaX := axisInit(ox, dx, res)
	tMaxY, tDeltaY := axisInit(oy, dy, res)
	for {
		var t float64
		if tMaxX < tMaxY {
			t = tMaxX
			tMaxX += tDeltaX
			x += stepX
		} else {
			t = tMaxY
			tMaxY += tDeltaY
			y += stepY
		}
		cells++
		if t > maxRange {
			return maxRange, cells
		}
		if g.Occupied(x, y) {
			return t, cells
		}
	}
}

// axisInit returns the DDA parameters for one axis: the parametric distance
// from origin o (moving with velocity component d) to the first cell
// boundary, and the distance between consecutive boundaries.
func axisInit(o, d, res float64) (tMax, tDelta float64) {
	if d == 0 {
		return math.Inf(1), math.Inf(1)
	}
	cell := math.Floor(o / res)
	var boundary float64
	if d > 0 {
		boundary = (cell + 1) * res
	} else {
		boundary = cell * res
	}
	tMax = (boundary - o) / d
	tDelta = res / math.Abs(d)
	return tMax, tDelta
}

// LineFree2D reports whether the straight segment between cell centers
// (x0, y0) and (x1, y1) crosses only free cells (Bresenham walk). The RRT
// post-processing kernel uses it for shortcut feasibility tests.
func (g *Grid2D) LineFree2D(x0, y0, x1, y1 int) bool {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	x, y := x0, y0
	for {
		if g.Occupied(x, y) {
			return false
		}
		if x == x1 && y == y1 {
			return true
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x += sx
		}
		if e2 <= dx {
			err += dx
			y += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// LineFree3D reports whether the straight voxel segment between (x0,y0,z0)
// and (x1,y1,z1) crosses only free voxels (3D Bresenham/Amanatides walk on
// the dominant axis). pp3d's path smoothing uses it for shortcut tests.
func (g *Grid3D) LineFree3D(x0, y0, z0, x1, y1, z1 int) bool {
	dx, dy, dz := abs(x1-x0), abs(y1-y0), abs(z1-z0)
	sx, sy, sz := sign(x1-x0), sign(y1-y0), sign(z1-z0)
	x, y, z := x0, y0, z0

	switch {
	case dx >= dy && dx >= dz:
		e1, e2 := 2*dy-dx, 2*dz-dx
		for {
			if g.Occupied(x, y, z) {
				return false
			}
			if x == x1 {
				return true
			}
			if e1 > 0 {
				y += sy
				e1 -= 2 * dx
			}
			if e2 > 0 {
				z += sz
				e2 -= 2 * dx
			}
			e1 += 2 * dy
			e2 += 2 * dz
			x += sx
		}
	case dy >= dx && dy >= dz:
		e1, e2 := 2*dx-dy, 2*dz-dy
		for {
			if g.Occupied(x, y, z) {
				return false
			}
			if y == y1 {
				return true
			}
			if e1 > 0 {
				x += sx
				e1 -= 2 * dy
			}
			if e2 > 0 {
				z += sz
				e2 -= 2 * dy
			}
			e1 += 2 * dx
			e2 += 2 * dz
			y += sy
		}
	default:
		e1, e2 := 2*dx-dz, 2*dy-dz
		for {
			if g.Occupied(x, y, z) {
				return false
			}
			if z == z1 {
				return true
			}
			if e1 > 0 {
				x += sx
				e1 -= 2 * dz
			}
			if e2 > 0 {
				y += sy
				e2 -= 2 * dz
			}
			e1 += 2 * dx
			e2 += 2 * dy
			z += sz
		}
	}
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// SmoothPath3D shortcuts a voxel-index path greedily with line-of-sight
// tests, the 3D counterpart of Grid2D.SmoothPath. IDs encode voxels as
// (z*H+y)*W + x.
func (g *Grid3D) SmoothPath3D(path []int) []int {
	if len(path) < 3 {
		return append([]int(nil), path...)
	}
	decode := func(id int) (int, int, int) {
		x := id % g.W
		id /= g.W
		return x, id % g.H, id / g.H
	}
	out := []int{path[0]}
	i := 0
	for i < len(path)-1 {
		j := i + 1
		for k := len(path) - 1; k > j; k-- {
			x0, y0, z0 := decode(path[i])
			x1, y1, z1 := decode(path[k])
			if g.LineFree3D(x0, y0, z0, x1, y1, z1) {
				j = k
				break
			}
		}
		out = append(out, path[j])
		i = j
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
