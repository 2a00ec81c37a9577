//! DeepST hyper-parameters.
//!
//! Defaults are the paper's §V-A settings scaled to CPU training (see
//! DESIGN.md §1 for the scaling table). Paper values in comments.

/// Hyper-parameters of the DeepST model.
#[derive(Debug, Clone)]
pub struct DeepStConfig {
    /// Number of road segments (the embedding vocabulary).
    pub n_segments: usize,
    /// `max_r N(r)` — width of the adjacent-slot output space (§IV-A).
    pub max_neighbors: usize,
    /// Road-segment embedding dimension fed to the GRU.
    pub emb_dim: usize,
    /// GRU hidden size = `n_r`, the route representation (paper: 256/128).
    pub hidden: usize,
    /// Stacked GRU layers (paper: 3).
    pub gru_layers: usize,
    /// Destination-proxy representation size `n_x` (paper: 128).
    pub n_x: usize,
    /// Number of destination proxies `K` (paper: 500–1000).
    pub k_proxies: usize,
    /// Traffic latent size `|c|` (paper: 256).
    pub c_dim: usize,
    /// Base channel count of the traffic CNN.
    pub cnn_channels: usize,
    /// Traffic grid height (cells).
    pub grid_h: usize,
    /// Traffic grid width (cells).
    pub grid_w: usize,
    /// Whether the traffic pathway is enabled. `false` gives DeepST-C
    /// (the ablation in Table IV).
    pub use_traffic: bool,
    /// Gumbel-Softmax temperature for the π relaxation (§IV-D).
    pub gumbel_temp: f32,
    /// Hard cap on generated route length.
    pub max_route_len: usize,
    /// Rows per block of the (row-sharded) segment-embedding table. Small
    /// worlds fit in one block, which is byte-identical to the historical
    /// dense layout; graph-scale worlds shard so a step's tape/grad/moment
    /// bytes track the rows visited, not `n_segments`.
    pub emb_block_rows: usize,
}

impl DeepStConfig {
    /// Scaled-down defaults for a network with `n_segments` segments and
    /// `max_neighbors` slot width.
    pub fn new(n_segments: usize, max_neighbors: usize, grid_h: usize, grid_w: usize) -> Self {
        Self {
            n_segments,
            max_neighbors,
            emb_dim: 32,
            hidden: 64,    // paper: 256
            gru_layers: 2, // paper: 3
            n_x: 32,       // paper: 128
            k_proxies: 24, // paper: 500–1000 (scaled to hotspot count)
            c_dim: 16,     // paper: 256
            cnn_channels: 4,
            grid_h,
            grid_w,
            use_traffic: true,
            gumbel_temp: 0.7,
            max_route_len: 150,
            emb_block_rows: 4096, // = st_nn::Embedding::DEFAULT_BLOCK_ROWS
        }
    }

    /// Override the embedding block size (the scale benches and the
    /// dense-vs-sharded parity oracles set this explicitly).
    pub fn with_emb_block_rows(mut self, block_rows: usize) -> Self {
        assert!(block_rows >= 1);
        self.emb_block_rows = block_rows;
        self
    }

    /// The DeepST-C ablation: no traffic pathway.
    pub fn without_traffic(mut self) -> Self {
        self.use_traffic = false;
        self
    }

    /// Set the number of destination proxies (Table VI sweep).
    pub fn with_k(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.k_proxies = k;
        self
    }

    /// Validate internal consistency.
    pub fn validate(&self) {
        assert!(self.n_segments > 0, "empty segment vocabulary");
        assert!(self.max_neighbors > 0, "max_neighbors must be positive");
        assert!(self.k_proxies > 0);
        assert!(self.gumbel_temp > 0.0);
        assert!(self.grid_h > 0 && self.grid_w > 0);
        assert!(self.max_route_len > 1);
        assert!(self.emb_block_rows >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        DeepStConfig::new(100, 4, 8, 8).validate();
    }

    #[test]
    fn ablation_flags() {
        let c = DeepStConfig::new(10, 3, 4, 4).without_traffic().with_k(7);
        assert!(!c.use_traffic);
        assert_eq!(c.k_proxies, 7);
    }

    #[test]
    #[should_panic]
    fn zero_segments_rejected() {
        DeepStConfig::new(0, 4, 8, 8).validate();
    }
}
