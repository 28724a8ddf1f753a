//! Mesh topology geometry: node identifiers, coordinates, ports,
//! deterministic X-Y routing and region partitioning for the regional
//! congestion-status OR network.

use std::fmt;

/// Identifier of a network node (one router plus its network interface).
///
/// Nodes are numbered in row-major order: `id = y * cols + x`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Creates a node id from a raw row-major index.
    pub fn new(index: u16) -> Self {
        NodeId(index)
    }

    /// Returns the raw row-major index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// A cardinal direction in the mesh.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Towards row 0 (decreasing y).
    North,
    /// Towards higher x.
    East,
    /// Towards higher y.
    South,
    /// Towards column 0 (decreasing x).
    West,
}

impl Direction {
    /// All four directions in port order.
    pub const ALL: [Direction; 4] = [Direction::North, Direction::East, Direction::South, Direction::West];

    /// The opposite direction (the port a neighbour uses to receive from us).
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }
}

/// A router port: four mesh directions plus the local (NI) port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Port {
    /// Link to the northern neighbour.
    North,
    /// Link to the eastern neighbour.
    East,
    /// Link to the southern neighbour.
    South,
    /// Link to the western neighbour.
    West,
    /// Injection/ejection port to the node's network interface.
    Local,
}

/// Number of ports on a mesh router.
pub const NUM_PORTS: usize = 5;

impl Port {
    /// All five ports in index order.
    pub const ALL: [Port; NUM_PORTS] = [Port::North, Port::East, Port::South, Port::West, Port::Local];

    /// Dense index of this port in `0..NUM_PORTS`.
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::East => 1,
            Port::South => 2,
            Port::West => 3,
            Port::Local => 4,
        }
    }

    /// Converts a dense index back to a port.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_PORTS`.
    pub fn from_index(idx: usize) -> Port {
        Port::ALL[idx]
    }

    /// The port a neighbour receives through when we send out of this
    /// port (mesh ports swap to their opposite; the local port maps to
    /// itself).
    pub fn opposite(self) -> Port {
        match self {
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
            Port::Local => Port::Local,
        }
    }

    /// The mesh direction of this port, or `None` for the local port.
    pub fn direction(self) -> Option<Direction> {
        match self {
            Port::North => Some(Direction::North),
            Port::East => Some(Direction::East),
            Port::South => Some(Direction::South),
            Port::West => Some(Direction::West),
            Port::Local => None,
        }
    }
}

impl From<Direction> for Port {
    fn from(d: Direction) -> Port {
        match d {
            Direction::North => Port::North,
            Direction::East => Port::East,
            Direction::South => Port::South,
            Direction::West => Port::West,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::North => "N",
            Port::East => "E",
            Port::South => "S",
            Port::West => "W",
            Port::Local => "L",
        };
        f.write_str(s)
    }
}

/// Dimensions of a 2-D mesh.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MeshDims {
    /// Number of columns (X extent).
    pub cols: u16,
    /// Number of rows (Y extent).
    pub rows: u16,
}

impl MeshDims {
    /// Creates mesh dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        MeshDims { cols, rows }
    }

    /// Total number of nodes.
    pub fn num_nodes(self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// (x, y) coordinates of a node.
    pub fn coords(self, node: NodeId) -> (u16, u16) {
        let idx = node.0;
        (idx % self.cols, idx / self.cols)
    }

    /// Node at the given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the mesh.
    pub fn node_at(self, x: u16, y: u16) -> NodeId {
        assert!(x < self.cols && y < self.rows, "coordinates out of bounds");
        NodeId(y * self.cols + x)
    }

    /// Returns whether `node` is a valid id for this mesh.
    pub fn contains(self, node: NodeId) -> bool {
        (node.0 as usize) < self.num_nodes()
    }

    /// The neighbour of `node` in direction `dir`, if it exists.
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        match dir {
            Direction::North => (y > 0).then(|| self.node_at(x, y - 1)),
            Direction::South => (y + 1 < self.rows).then(|| self.node_at(x, y + 1)),
            Direction::West => (x > 0).then(|| self.node_at(x - 1, y)),
            Direction::East => (x + 1 < self.cols).then(|| self.node_at(x + 1, y)),
        }
    }

    /// Deterministic dimension-ordered X-Y routing: the output port a packet
    /// positioned at `at` must take to reach `dst`.
    ///
    /// Routes fully in X first, then in Y; returns [`Port::Local`] when
    /// `at == dst`.
    pub fn xy_route(self, at: NodeId, dst: NodeId) -> Port {
        MeshDims::xy_route_coords(self.coords(at), self.coords(dst))
    }

    /// [`MeshDims::xy_route`] from `at`'s to `dst`'s `(x, y)` coordinates.
    pub fn xy_route_coords((ax, ay): (u16, u16), (dx, dy): (u16, u16)) -> Port {
        if ax < dx {
            Port::East
        } else if ax > dx {
            Port::West
        } else if ay < dy {
            Port::South
        } else if ay > dy {
            Port::North
        } else {
            Port::Local
        }
    }

    /// Manhattan hop distance between two nodes.
    pub fn hop_distance(self, a: NodeId, b: NodeId) -> u16 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// Iterator over all node ids in row-major order.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u16).map(NodeId)
    }
}

/// Identifier of a region of the mesh (used by the regional congestion
/// status OR network, which partitions an 8x8 mesh into four 4x4 regions).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u8);

impl RegionId {
    /// Dense index of this region.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Partition of a mesh into rectangular regions of `region_cols x
/// region_rows` nodes each.
///
/// The Catnap paper partitions the 8x8 mesh into four 4x4 regions; this type
/// generalizes that to any rectangular tiling (including a single global
/// region or per-node regions, used by the ablation benches).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionMap {
    dims: MeshDims,
    regions_x: u16,
    regions_y: u16,
    /// The region of each node, by node index, worked out once.
    node_region: Vec<RegionId>,
}

impl RegionMap {
    /// Creates a region map tiling `dims` with regions of the given size.
    ///
    /// Region sizes need not divide the mesh evenly; edge regions are
    /// simply smaller.
    ///
    /// # Panics
    ///
    /// Panics if either region dimension is zero.
    pub fn new(dims: MeshDims, region_cols: u16, region_rows: u16) -> Self {
        assert!(region_cols > 0 && region_rows > 0, "region dimensions must be non-zero");
        let regions_x = dims.cols.div_ceil(region_cols);
        let regions_y = dims.rows.div_ceil(region_rows);
        let node_region = dims
            .nodes()
            .map(|node| {
                let (x, y) = dims.coords(node);
                RegionId(((y / region_rows) * regions_x + x / region_cols) as u8)
            })
            .collect();
        RegionMap {
            dims,
            regions_x,
            regions_y,
            node_region,
        }
    }

    /// The paper's configuration: quadrants of 4x4 routers on an 8x8 mesh
    /// (more generally, halves of each dimension rounded up).
    pub fn quadrants(dims: MeshDims) -> Self {
        RegionMap::new(dims, dims.cols.div_ceil(2), dims.rows.div_ceil(2))
    }

    /// One global region covering the whole mesh.
    pub fn global(dims: MeshDims) -> Self {
        RegionMap::new(dims, dims.cols, dims.rows)
    }

    /// One region per node (degenerates RCS to purely local status).
    pub fn per_node(dims: MeshDims) -> Self {
        RegionMap::new(dims, 1, 1)
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions_x as usize * self.regions_y as usize
    }

    /// The region containing `node`.
    pub fn region_of(&self, node: NodeId) -> RegionId {
        self.node_region[node.index()]
    }

    /// Iterator over the nodes belonging to `region`.
    pub fn nodes_in(&self, region: RegionId) -> impl Iterator<Item = NodeId> + '_ {
        self.dims.nodes().filter(move |&n| self.region_of(n) == region)
    }

    /// The mesh dimensions this map partitions.
    pub fn dims(&self) -> MeshDims {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> MeshDims {
        MeshDims::new(8, 8)
    }

    #[test]
    fn node_coords_roundtrip() {
        let m = mesh8();
        for node in m.nodes() {
            let (x, y) = m.coords(node);
            assert_eq!(m.node_at(x, y), node);
        }
    }

    #[test]
    fn num_nodes_matches_dims() {
        assert_eq!(mesh8().num_nodes(), 64);
        assert_eq!(MeshDims::new(4, 4).num_nodes(), 16);
        assert_eq!(MeshDims::new(3, 5).num_nodes(), 15);
    }

    #[test]
    #[should_panic]
    fn zero_dims_panic() {
        MeshDims::new(0, 4);
    }

    #[test]
    fn neighbors_at_corner() {
        let m = mesh8();
        let origin = m.node_at(0, 0);
        assert_eq!(m.neighbor(origin, Direction::North), None);
        assert_eq!(m.neighbor(origin, Direction::West), None);
        assert_eq!(m.neighbor(origin, Direction::East), Some(m.node_at(1, 0)));
        assert_eq!(m.neighbor(origin, Direction::South), Some(m.node_at(0, 1)));
    }

    #[test]
    fn neighbors_in_middle() {
        let m = mesh8();
        let mid = m.node_at(3, 3);
        assert_eq!(m.neighbor(mid, Direction::North), Some(m.node_at(3, 2)));
        assert_eq!(m.neighbor(mid, Direction::South), Some(m.node_at(3, 4)));
        assert_eq!(m.neighbor(mid, Direction::East), Some(m.node_at(4, 3)));
        assert_eq!(m.neighbor(mid, Direction::West), Some(m.node_at(2, 3)));
    }

    #[test]
    fn opposite_directions() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn port_index_roundtrip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), p);
        }
    }

    #[test]
    fn port_opposite_matches_direction_opposite() {
        for p in Port::ALL {
            assert_eq!(p.opposite().opposite(), p);
            match p.direction() {
                Some(d) => assert_eq!(p.opposite(), Port::from(d.opposite())),
                None => assert_eq!(p.opposite(), Port::Local),
            }
        }
    }

    #[test]
    fn xy_routes_x_first() {
        let m = mesh8();
        let src = m.node_at(1, 1);
        let dst = m.node_at(5, 6);
        assert_eq!(m.xy_route(src, dst), Port::East);
        // Once X is resolved, route in Y.
        let aligned = m.node_at(5, 1);
        assert_eq!(m.xy_route(aligned, dst), Port::South);
        assert_eq!(m.xy_route(dst, dst), Port::Local);
    }

    #[test]
    fn xy_route_follows_to_destination() {
        let m = mesh8();
        for &(s, d) in &[(0u16, 63u16), (63, 0), (7, 56), (12, 12), (5, 40)] {
            let (src, dst) = (NodeId(s), NodeId(d));
            let mut at = src;
            let mut hops = 0;
            loop {
                let port = m.xy_route(at, dst);
                if port == Port::Local {
                    break;
                }
                at = m.neighbor(at, port.direction().unwrap()).expect("route fell off mesh");
                hops += 1;
                assert!(hops <= 64, "routing loop");
            }
            assert_eq!(at, dst);
            assert_eq!(hops, m.hop_distance(src, dst));
        }
    }

    #[test]
    fn quadrant_regions_on_8x8() {
        let map = RegionMap::quadrants(mesh8());
        assert_eq!(map.num_regions(), 4);
        let m = mesh8();
        assert_eq!(map.region_of(m.node_at(0, 0)), RegionId(0));
        assert_eq!(map.region_of(m.node_at(7, 0)), RegionId(1));
        assert_eq!(map.region_of(m.node_at(0, 7)), RegionId(2));
        assert_eq!(map.region_of(m.node_at(7, 7)), RegionId(3));
        // Every region holds exactly 16 nodes.
        for r in 0..4 {
            assert_eq!(map.nodes_in(RegionId(r)).count(), 16);
        }
    }

    #[test]
    fn global_and_per_node_regions() {
        let g = RegionMap::global(mesh8());
        assert_eq!(g.num_regions(), 1);
        assert!(mesh8().nodes().all(|n| g.region_of(n) == RegionId(0)));

        let p = RegionMap::per_node(MeshDims::new(4, 4));
        assert_eq!(p.num_regions(), 16);
        let mut seen: Vec<u8> = MeshDims::new(4, 4).nodes().map(|n| p.region_of(n).0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn hop_distance_symmetric() {
        let m = mesh8();
        for &(a, b) in &[(0u16, 63u16), (10, 53), (8, 8)] {
            assert_eq!(
                m.hop_distance(NodeId(a), NodeId(b)),
                m.hop_distance(NodeId(b), NodeId(a))
            );
        }
    }
}
