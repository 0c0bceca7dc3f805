//! Cluster topology: nodes grouped into racks, with the locality levels
//! Hadoop's scheduler distinguishes (node-local / rack-local / off-rack).

/// Identifier of a (slave) node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a rack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RackId(pub u32);

/// Data-locality level of a task placement, ordered best-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Locality {
    /// A replica lives on the executing node.
    NodeLocal,
    /// A replica lives in the executing node's rack.
    RackLocal,
    /// Data must cross racks.
    OffRack,
}

/// Static cluster layout.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes_per_rack: u32,
    num_nodes: u32,
}

impl Topology {
    /// Build a topology of `num_nodes` slaves grouped `nodes_per_rack` per
    /// rack (the last rack may be partial).
    pub fn new(num_nodes: u32, nodes_per_rack: u32) -> Self {
        assert!(num_nodes > 0 && nodes_per_rack > 0);
        Topology {
            nodes_per_rack,
            num_nodes,
        }
    }

    /// Number of slave nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    /// Rack of a node.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        RackId(node.0 / self.nodes_per_rack)
    }

    /// Number of racks.
    pub fn num_racks(&self) -> u32 {
        self.num_nodes.div_ceil(self.nodes_per_rack)
    }

    /// Locality of accessing data whose replicas live on `replicas` from
    /// `node`.
    pub fn locality(&self, node: NodeId, replicas: &[NodeId]) -> Locality {
        if replicas.contains(&node) {
            return Locality::NodeLocal;
        }
        let rack = self.rack_of(node);
        if replicas.iter().any(|&r| self.rack_of(r) == rack) {
            Locality::RackLocal
        } else {
            Locality::OffRack
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_grouping() {
        let t = Topology::new(10, 4);
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.rack_of(NodeId(0)), RackId(0));
        assert_eq!(t.rack_of(NodeId(3)), RackId(0));
        assert_eq!(t.rack_of(NodeId(4)), RackId(1));
        assert_eq!(t.rack_of(NodeId(9)), RackId(2));
    }

    #[test]
    fn locality_levels_ordered() {
        assert!(Locality::NodeLocal < Locality::RackLocal);
        assert!(Locality::RackLocal < Locality::OffRack);
    }

    #[test]
    fn locality_classification() {
        let t = Topology::new(8, 4);
        let replicas = [NodeId(1), NodeId(5)];
        assert_eq!(t.locality(NodeId(1), &replicas), Locality::NodeLocal);
        assert_eq!(t.locality(NodeId(2), &replicas), Locality::RackLocal); // same rack as 1
        assert_eq!(t.locality(NodeId(6), &replicas), Locality::RackLocal); // same rack as 5
        let far = [NodeId(0)];
        assert_eq!(t.locality(NodeId(6), &far), Locality::OffRack);
    }
}
