import pytest

from gclgcn.config import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    _KNOWN_KEYS,
    parse_config,
    require_dataset,
)


class TestPresets:
    def test_cora_preset_values(self):
        cfg = ExperimentConfig(**PRESETS["cora"])
        assert cfg.epochs == 400
        assert cfg.alpha == 0.1 and cfg.beta == 0.1
        assert cfg.n_z == 10
        assert cfg.lr == 1e-4
        assert (cfg.lam, cfg.theta, cfg.gamma) == (0.4, 0.1, 0.5)
        assert cfg.epsilon == 0.5
        assert cfg.k == 7

    def test_acm_preset_values(self):
        cfg = ExperimentConfig(**PRESETS["acm"])
        assert cfg.epochs == 200
        assert cfg.alpha == 0.3 and cfg.beta == 0.3
        assert cfg.n_z == 10
        assert cfg.lr == 5e-5
        assert (cfg.lam, cfg.theta, cfg.gamma) == (0.4, 0.3, 0.3)
        assert cfg.k == 3

    def test_all_presets_valid(self):
        for name in PRESETS:
            cfg = ExperimentConfig(**PRESETS[name])
            assert abs(cfg.lam + cfg.theta + cfg.gamma - 1.0) <= 1e-9

    def test_dblp_and_others(self):
        assert ExperimentConfig(**PRESETS["dblp"]).lr == 2e-3
        assert ExperimentConfig(**PRESETS["citeseer"]).beta == 0.12
        assert ExperimentConfig(**PRESETS["hhar"]).epochs == 600
        assert ExperimentConfig(**PRESETS["reuters"]).n_z == 20


class TestValidation:
    def test_fusion_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="fusion weights must sum to 1"):
            ExperimentConfig(lam=0.5, theta=0.5, gamma=0.5)

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            ExperimentConfig(epsilon=1.5)

    def test_negative_loss_weights(self):
        with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
            ExperimentConfig(alpha=-0.1)

    def test_t_positive(self):
        with pytest.raises(ConfigError, match="t must be positive"):
            ExperimentConfig(t=0.0)

    def test_layers_range(self):
        with pytest.raises(ConfigError, match="layers"):
            ExperimentConfig(layers=5)

    def test_centrality_subset(self):
        with pytest.raises(ConfigError, match="centrality"):
            ExperimentConfig(centrality=("pagerank",))
        with pytest.raises(ConfigError, match="centrality"):
            ExperimentConfig(centrality=())

    def test_ablation_values(self):
        with pytest.raises(ConfigError, match="ablation"):
            ExperimentConfig(ablation="-AE")

    def test_contrastive_ranges(self):
        with pytest.raises(ConfigError, match="contrastive.p"):
            ExperimentConfig(contrastive_p=2.0)
        with pytest.raises(ConfigError, match="tau"):
            ExperimentConfig(contrastive_tau=0.0)

    def test_contrastive_variant_key_unknown(self, tmp_path):
        path = tmp_path / "variant.cfg"
        path.write_text("contrastive.variant=v0\n")
        with pytest.raises(ConfigError, match="unknown key 'contrastive.variant'"):
            parse_config(path)

    def test_raw_ax_target_key_unknown(self, tmp_path):
        path = tmp_path / "target.cfg"
        path.write_text("raw_ax_target=true\n")
        with pytest.raises(ConfigError, match="unknown key 'raw_ax_target'"):
            parse_config(path)


class TestConfigFile:
    def test_parse_file_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "preset=cora\n"
            "epochs=7\n"
            "lambda=0.2\n"
            "theta=0.3\n"
            "gamma=0.5\n"
            "centrality=degree,closeness\n"
            "contrastive.tau=0.25\n"
        )
        cfg = parse_config(path)
        assert cfg.epochs == 7
        assert cfg.k == 7  # from preset
        assert (cfg.lam, cfg.theta, cfg.gamma) == (0.2, 0.3, 0.5)
        assert cfg.centrality == ("degree", "closeness")
        assert cfg.contrastive_tau == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("momentum=0.9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("epochs=1\nepochs=2\n")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(path)

    def test_bad_number_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha=fast\n")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(path)

    def test_fusion_sum_error_from_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda=0.5\ntheta=0.5\ngamma=0.5\n")
        with pytest.raises(ConfigError, match="fusion weights must sum to 1"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["lr", "alpha", "beta", "lambda", "theta", "gamma", "t",
                                     "contrastive.tau", "contrastive.beta_sim"])
    def test_nonfinite_value_names_key(self, key, value, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key}={value}\n")
        with pytest.raises(ConfigError, match=rf": {key} must be [a-z >=0]*finite[a-z >=0]*, got {value}$"):
            parse_config(path)

    def test_negative_seed_names_file_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed=-1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg: seed must be >= 0, got -1$"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/x.cfg")

    def test_round_trip(self, tmp_path):
        """A file that sets every key parses to exactly those settings."""
        text = (
            "preset=acm\n"
            "features=f.csv\nedges=e.txt\nlabels=y.txt\n"
            "epochs=17\nalpha=0.07\nbeta=0.21\nn_z=6\nlr=3.5e-4\n"
            "lambda=0.25\ntheta=0.45\ngamma=0.3\nepsilon=0.4\nt=2.0\nk=4\n"
            "seed=99\nheads=2\nlayers=3\ncentrality=degree, betweenness\n"
            "spatial_mode=shortest-path\nspatial_sign=-\n"
            "contrastive.p=0.4\ncontrastive.tau=0.33\ncontrastive.beta_sim=2.0\n"
            "contrastive.hidden=64\ncontrastive.epochs=25\n"
            "ablation=-GCN\n"
        )
        assert {line.split("=")[0] for line in text.splitlines()} == {"preset", *_KNOWN_KEYS}
        path = tmp_path / "every.cfg"
        path.write_text(text)
        assert parse_config(path) == ExperimentConfig(
            features="f.csv", edges="e.txt", labels="y.txt",
            epochs=17, alpha=0.07, beta=0.21, n_z=6, lr=3.5e-4,
            lam=0.25, theta=0.45, gamma=0.3, epsilon=0.4, t=2.0, k=4,
            seed=99, heads=2, layers=3, centrality=("degree", "betweenness"),
            spatial_mode="shortest-path", spatial_sign="-",
            contrastive_p=0.4, contrastive_tau=0.33, contrastive_beta_sim=2.0,
            contrastive_hidden=64, contrastive_epochs=25,
            ablation="-GCN",
        )

    def test_round_trip_defaults(self, tmp_path):
        """A file with no settings parses to the defaults."""
        path = tmp_path / "d.cfg"
        path.write_text("# nothing set\n\n")
        assert parse_config(path) == ExperimentConfig()


def test_require_dataset():
    with pytest.raises(ConfigError, match="missing key: features"):
        require_dataset(ExperimentConfig())
    cfg = ExperimentConfig(features="f", edges="e")
    require_dataset(cfg)
    with pytest.raises(ConfigError, match="missing key: labels"):
        require_dataset(cfg, need_labels=True)
