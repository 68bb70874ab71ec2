from sketchsql import harness as H
from sketchsql.encoder import load_embeddings
from sketchsql.executor import execute
from sketchsql.synth import generate_corpus
from sketchsql.tagger import Gazetteer, tokenize


class TestSyntheticCorpus:
    def test_sizes_and_schema_count(self, tmp_path):
        paths = generate_corpus(tmp_path / "c", seed=1, n_train=60, n_dev=20)
        train, tables = H.load_dataset(paths.train, paths.tables)
        dev, _ = H.load_dataset(paths.dev, paths.tables)
        assert len(train) == 60 and len(dev) == 20
        assert len(tables) >= 10

    def test_deterministic_for_seed(self, tmp_path):
        a = generate_corpus(tmp_path / "a", seed=7, n_train=30, n_dev=10)
        b = generate_corpus(tmp_path / "b", seed=7, n_train=30, n_dev=10)
        for pa, pb in [(a.train, b.train), (a.tables, b.tables),
                       (a.embeddings, b.embeddings), (a.gazetteer, b.gazetteer)]:
            assert pa.read_bytes() == pb.read_bytes()

    def test_every_condition_value_occurs_in_question(self, tmp_path):
        paths = generate_corpus(tmp_path / "c", seed=2, n_train=80, n_dev=20)
        train, _ = H.load_dataset(paths.train, paths.tables)
        for ex in train:
            tokens = tokenize(ex.question)[0]
            for _, _, val in ex.gold.conds:
                assert H.find_token_span(tokens, val) is not None, (ex.question, val)

    def test_gold_queries_execute(self, tmp_path):
        paths = generate_corpus(tmp_path / "c", seed=3, n_train=80, n_dev=20)
        train, tables = H.load_dataset(paths.train, paths.tables)
        for ex in train:
            execute(ex.gold, tables[ex.table_id])  # must not raise

    def test_no_question_leaks_between_splits(self, tmp_path):
        paths = generate_corpus(tmp_path / "c", seed=4, n_train=100, n_dev=40)
        train, _ = H.load_dataset(paths.train, paths.tables)
        dev, _ = H.load_dataset(paths.dev, paths.tables)
        assert not {e.question for e in train} & {e.question for e in dev}

    def test_embeddings_cover_corpus_vocabulary(self, tmp_path):
        paths = generate_corpus(tmp_path / "c", seed=5, n_train=50, n_dev=10)
        emb = load_embeddings([paths.embeddings])
        assert emb.dim == 50
        train, _ = H.load_dataset(paths.train, paths.tables)
        for ex in train[:20]:
            for token in tokenize(ex.question)[0]:
                assert token in emb

    def test_gazetteer_loads(self, tmp_path):
        paths = generate_corpus(tmp_path / "c", seed=6, n_train=20, n_dev=5)
        gaz = Gazetteer.from_tsv(paths.gazetteer)
        assert gaz.get("alma reyes") == "person"
        assert gaz.get("norway") == "country"
