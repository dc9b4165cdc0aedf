//! End-to-end SQL tests of the engine over the in-process storage
//! environment (no isolation — pure engine semantics).

use cubicle_core::{IsolationMode, System};
use cubicle_sqldb::storage::HostEnv;
use cubicle_sqldb::{Database, SqlError, SqlValue};

fn setup() -> (System, Database) {
    let mut sys = System::new(IsolationMode::Unikraft);
    let db = Database::open(&mut sys, Box::new(HostEnv::new()), "/test.db").unwrap();
    (sys, db)
}

fn ints(rows: &[Vec<SqlValue>]) -> Vec<i64> {
    rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
}

#[test]
fn create_insert_select() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(a INTEGER, b TEXT)")
        .unwrap();
    db.execute(
        &mut sys,
        "INSERT INTO t VALUES (1,'one'), (2,'two'), (3,'three')",
    )
    .unwrap();
    let rows = db.query(&mut sys, "SELECT a, b FROM t ORDER BY a").unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(
        rows[0],
        vec![SqlValue::Integer(1), SqlValue::Text("one".into())]
    );
    assert_eq!(
        rows[2],
        vec![SqlValue::Integer(3), SqlValue::Text("three".into())]
    );
}

#[test]
fn select_star_and_rowid() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(x TEXT)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES ('a'), ('b')")
        .unwrap();
    let rows = db
        .query(&mut sys, "SELECT rowid, x FROM t ORDER BY rowid")
        .unwrap();
    assert_eq!(rows[0][0], SqlValue::Integer(1));
    assert_eq!(rows[1][0], SqlValue::Integer(2));
    let star = db.query(&mut sys, "SELECT * FROM t").unwrap();
    assert_eq!(star.len(), 2);
    assert_eq!(star[0].len(), 1);
}

#[test]
fn integer_primary_key_is_rowid_alias() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (100, 'x')")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO t(v) VALUES ('auto')")
        .unwrap();
    let rows = db.query(&mut sys, "SELECT id FROM t ORDER BY id").unwrap();
    assert_eq!(
        ints(&rows),
        vec![100, 101],
        "auto rowid continues after explicit"
    );
    // duplicate pk
    let err = db.execute(&mut sys, "INSERT INTO t VALUES (100, 'dup')");
    assert!(matches!(err, Err(SqlError::Constraint(_))));
}

#[test]
fn where_filters_and_operators() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE n(v INTEGER)").unwrap();
    let values: Vec<String> = (1..=20).map(|i| format!("({i})")).collect();
    db.execute(
        &mut sys,
        &format!("INSERT INTO n VALUES {}", values.join(",")),
    )
    .unwrap();
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM n WHERE v < 5")
            .unwrap()
            .len(),
        4
    );
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM n WHERE v BETWEEN 5 AND 10")
            .unwrap()
            .len(),
        6
    );
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM n WHERE v % 2 = 0")
            .unwrap()
            .len(),
        10
    );
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM n WHERE v IN (1, 7, 99)")
            .unwrap()
            .len(),
        2
    );
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM n WHERE v > 18 OR v <= 2")
            .unwrap()
            .len(),
        4
    );
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM n WHERE NOT (v > 2)")
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn null_semantics() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(v INTEGER)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (1), (NULL), (3)")
        .unwrap();
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM t WHERE v IS NULL")
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM t WHERE v IS NOT NULL")
            .unwrap()
            .len(),
        2
    );
    // NULL never equals anything
    assert_eq!(
        db.query(&mut sys, "SELECT v FROM t WHERE v = NULL")
            .unwrap()
            .len(),
        0
    );
    // NULLs sort first
    let rows = db.query(&mut sys, "SELECT v FROM t ORDER BY v").unwrap();
    assert_eq!(rows[0][0], SqlValue::Null);
}

#[test]
fn like_patterns() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(s TEXT)").unwrap();
    db.execute(
        &mut sys,
        "INSERT INTO t VALUES ('apple'), ('apricot'), ('banana'), ('Avocado')",
    )
    .unwrap();
    assert_eq!(
        db.query(&mut sys, "SELECT s FROM t WHERE s LIKE 'ap%'")
            .unwrap()
            .len(),
        2
    );
    assert_eq!(
        db.query(&mut sys, "SELECT s FROM t WHERE s LIKE 'a%'")
            .unwrap()
            .len(),
        3,
        "case-insensitive"
    );
    assert_eq!(
        db.query(&mut sys, "SELECT s FROM t WHERE s LIKE '_anana'")
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        db.query(&mut sys, "SELECT s FROM t WHERE s NOT LIKE '%a%'")
            .unwrap()
            .len(),
        0
    );
}

#[test]
fn update_and_delete() {
    let (mut sys, mut db) = setup();
    db.execute(
        &mut sys,
        "CREATE TABLE t(id INTEGER PRIMARY KEY, v INTEGER)",
    )
    .unwrap();
    for i in 1..=10 {
        db.execute(&mut sys, &format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    let r = db
        .execute(&mut sys, "UPDATE t SET v = v * 10 WHERE id <= 3")
        .unwrap();
    assert_eq!(r.rows_affected, 3);
    let rows = db
        .query(&mut sys, "SELECT v FROM t WHERE id <= 3 ORDER BY id")
        .unwrap();
    assert_eq!(ints(&rows), vec![10, 20, 30]);

    let r = db.execute(&mut sys, "DELETE FROM t WHERE v > 25").unwrap();
    assert_eq!(r.rows_affected, 1, "only v=30 exceeds 25");
    let remaining = db.query(&mut sys, "SELECT count(*) FROM t").unwrap();
    assert_eq!(ints(&remaining), vec![9]);
}

#[test]
fn aggregates() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(g TEXT, v INTEGER)")
        .unwrap();
    db.execute(
        &mut sys,
        "INSERT INTO t VALUES ('a',1),('a',2),('b',10),('b',20),('b',NULL)",
    )
    .unwrap();
    let rows = db
        .query(
            &mut sys,
            "SELECT count(*), count(v), sum(v), min(v), max(v), avg(v) FROM t",
        )
        .unwrap();
    assert_eq!(
        rows[0],
        vec![
            SqlValue::Integer(5),
            SqlValue::Integer(4),
            SqlValue::Integer(33),
            SqlValue::Integer(1),
            SqlValue::Integer(20),
            SqlValue::Real(33.0 / 4.0),
        ]
    );
    let rows = db
        .query(
            &mut sys,
            "SELECT g, count(*), sum(v) FROM t GROUP BY g ORDER BY g",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[0],
        vec!["a".into(), SqlValue::Integer(2), SqlValue::Integer(3)]
    );
    assert_eq!(
        rows[1],
        vec!["b".into(), SqlValue::Integer(3), SqlValue::Integer(30)]
    );
}

#[test]
fn aggregate_on_empty_table() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(v INTEGER)").unwrap();
    let rows = db
        .query(&mut sys, "SELECT count(*), sum(v) FROM t")
        .unwrap();
    assert_eq!(rows, vec![vec![SqlValue::Integer(0), SqlValue::Null]]);
}

#[test]
fn order_by_limit_offset_distinct() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(v INTEGER)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (3),(1),(2),(3),(1)")
        .unwrap();
    let rows = db
        .query(&mut sys, "SELECT v FROM t ORDER BY v DESC")
        .unwrap();
    assert_eq!(ints(&rows), vec![3, 3, 2, 1, 1]);
    let rows = db
        .query(&mut sys, "SELECT DISTINCT v FROM t ORDER BY v")
        .unwrap();
    assert_eq!(ints(&rows), vec![1, 2, 3]);
    let rows = db
        .query(&mut sys, "SELECT v FROM t ORDER BY v LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(ints(&rows), vec![1, 2]);
}

#[test]
fn joins() {
    let (mut sys, mut db) = setup();
    db.execute(
        &mut sys,
        "CREATE TABLE users(id INTEGER PRIMARY KEY, name TEXT)",
    )
    .unwrap();
    db.execute(
        &mut sys,
        "CREATE TABLE orders(id INTEGER PRIMARY KEY, user_id INTEGER, total INTEGER)",
    )
    .unwrap();
    db.execute(
        &mut sys,
        "INSERT INTO users VALUES (1,'ann'),(2,'bob'),(3,'eve')",
    )
    .unwrap();
    db.execute(
        &mut sys,
        "INSERT INTO orders VALUES (1,1,10),(2,1,20),(3,2,5)",
    )
    .unwrap();
    let rows = db
        .query(
            &mut sys,
            "SELECT u.name, o.total FROM users u JOIN orders o ON o.user_id = u.id \
             ORDER BY o.total",
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0], vec!["bob".into(), SqlValue::Integer(5)]);
    // aggregate over join
    let rows = db
        .query(
            &mut sys,
            "SELECT u.name, sum(o.total) FROM users u, orders o \
             WHERE o.user_id = u.id GROUP BY u.name ORDER BY u.name",
        )
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec!["ann".into(), SqlValue::Integer(30)],
            vec!["bob".into(), SqlValue::Integer(5)],
        ]
    );
    // three-way join
    db.execute(&mut sys, "CREATE TABLE tags(order_id INTEGER, tag TEXT)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO tags VALUES (1,'rush'),(3,'gift')")
        .unwrap();
    let rows = db
        .query(
            &mut sys,
            "SELECT u.name, t.tag FROM users u, orders o, tags t \
             WHERE o.user_id = u.id AND t.order_id = o.id ORDER BY t.tag",
        )
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec!["bob".into(), "gift".into()],
            vec!["ann".into(), "rush".into()],
        ]
    );
}

#[test]
fn indexes_used_for_lookups() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(a INTEGER, b TEXT)")
        .unwrap();
    db.execute(&mut sys, "BEGIN").unwrap();
    for i in 0..2000 {
        db.execute(
            &mut sys,
            &format!("INSERT INTO t VALUES ({}, 'v{}')", i % 500, i),
        )
        .unwrap();
    }
    db.execute(&mut sys, "COMMIT").unwrap();
    db.execute(&mut sys, "CREATE INDEX ia ON t(a)").unwrap();

    let rows = db
        .query(&mut sys, "SELECT count(*) FROM t WHERE a = 7")
        .unwrap();
    assert_eq!(ints(&rows), vec![4]);
    let rows = db
        .query(&mut sys, "SELECT count(*) FROM t WHERE a BETWEEN 10 AND 12")
        .unwrap();
    assert_eq!(ints(&rows), vec![12]);
    // sanity: the same answer as an unindexed predicate on b
    let rows = db
        .query(&mut sys, "SELECT count(*) FROM t WHERE b = 'v7'")
        .unwrap();
    assert_eq!(ints(&rows), vec![1]);
}

#[test]
fn unique_constraints() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(email TEXT UNIQUE, n INTEGER)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES ('a@x', 1)")
        .unwrap();
    let err = db.execute(&mut sys, "INSERT INTO t VALUES ('a@x', 2)");
    assert!(matches!(err, Err(SqlError::Constraint(_))));
    // NULLs do not collide
    db.execute(&mut sys, "INSERT INTO t VALUES (NULL, 3)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (NULL, 4)")
        .unwrap();
    // unique index created explicitly
    db.execute(&mut sys, "CREATE UNIQUE INDEX un ON t(n)")
        .unwrap();
    let err = db.execute(&mut sys, "INSERT INTO t VALUES ('b@x', 3)");
    assert!(matches!(err, Err(SqlError::Constraint(_))));
}

#[test]
fn not_null_and_defaults() {
    let (mut sys, mut db) = setup();
    db.execute(
        &mut sys,
        "CREATE TABLE t(a INTEGER NOT NULL, b TEXT DEFAULT 'dflt')",
    )
    .unwrap();
    let err = db.execute(&mut sys, "INSERT INTO t(b) VALUES ('x')");
    assert!(matches!(err, Err(SqlError::Constraint(_))));
    db.execute(&mut sys, "INSERT INTO t(a) VALUES (1)").unwrap();
    let rows = db.query(&mut sys, "SELECT b FROM t").unwrap();
    assert_eq!(rows[0][0], SqlValue::Text("dflt".into()));
}

#[test]
fn transactions_commit_and_rollback() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(v INTEGER)").unwrap();
    db.execute(&mut sys, "BEGIN").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (1)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (2)").unwrap();
    db.execute(&mut sys, "ROLLBACK").unwrap();
    assert_eq!(
        db.query(&mut sys, "SELECT count(*) FROM t").unwrap()[0][0],
        SqlValue::Integer(0)
    );

    db.execute(&mut sys, "BEGIN").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (3)").unwrap();
    db.execute(&mut sys, "COMMIT").unwrap();
    assert_eq!(
        db.query(&mut sys, "SELECT count(*) FROM t").unwrap()[0][0],
        SqlValue::Integer(1)
    );
}

#[test]
fn failed_statement_rolls_back_atomically() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(v INTEGER UNIQUE)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (1)").unwrap();
    // multi-row insert that fails midway must leave no partial rows
    let err = db.execute(&mut sys, "INSERT INTO t VALUES (2), (1), (3)");
    assert!(err.is_err());
    let rows = db.query(&mut sys, "SELECT v FROM t ORDER BY v").unwrap();
    assert_eq!(ints(&rows), vec![1], "partial insert rolled back");
}

#[test]
fn rollback_of_ddl() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "BEGIN").unwrap();
    db.execute(&mut sys, "CREATE TABLE temp_t(v INTEGER)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO temp_t VALUES (1)")
        .unwrap();
    db.execute(&mut sys, "ROLLBACK").unwrap();
    let err = db.query(&mut sys, "SELECT * FROM temp_t");
    assert!(matches!(err, Err(SqlError::NoSuchTable(_))));
}

#[test]
fn persistence_across_reopen() {
    let mut sys = System::new(IsolationMode::Unikraft);
    let env = HostEnv::new();
    {
        let mut db = Database::open(&mut sys, Box::new(env.clone()), "/p.db").unwrap();
        db.execute(&mut sys, "CREATE TABLE t(id INTEGER PRIMARY KEY, v TEXT)")
            .unwrap();
        db.execute(&mut sys, "CREATE INDEX iv ON t(v)").unwrap();
        db.execute(&mut sys, "INSERT INTO t VALUES (1,'hello'), (2,'world')")
            .unwrap();
    }
    let mut db = Database::open(&mut sys, Box::new(env), "/p.db").unwrap();
    let rows = db.query(&mut sys, "SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(rows[0][0], SqlValue::Text("world".into()));
    let rows = db
        .query(&mut sys, "SELECT id FROM t WHERE v = 'hello'")
        .unwrap();
    assert_eq!(ints(&rows), vec![1]);
    let check = db.query(&mut sys, "PRAGMA integrity_check").unwrap();
    assert_eq!(check[0][0], SqlValue::Text("ok".into()));
}

#[test]
fn drop_table_and_index() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(v INTEGER)").unwrap();
    db.execute(&mut sys, "CREATE INDEX iv ON t(v)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (1)").unwrap();
    db.execute(&mut sys, "DROP INDEX iv").unwrap();
    db.execute(&mut sys, "DROP TABLE t").unwrap();
    assert!(matches!(
        db.query(&mut sys, "SELECT * FROM t"),
        Err(SqlError::NoSuchTable(_))
    ));
    db.execute(&mut sys, "DROP TABLE IF EXISTS t").unwrap();
    assert!(db.execute(&mut sys, "DROP TABLE t").is_err());
    // name can be reused
    db.execute(&mut sys, "CREATE TABLE t(other TEXT)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES ('x')").unwrap();
}

#[test]
fn scalar_functions() {
    let (mut sys, mut db) = setup();
    let rows = db
        .query(
            &mut sys,
            "SELECT length('héllo'), abs(-5), upper('ab'), lower('AB'), \
             substr('abcdef', 2, 3), coalesce(NULL, NULL, 7), ifnull(NULL, 3), \
             nullif(1, 1), min(3, 1, 2), max(3, 1, 2), round(2.567, 2)",
        )
        .unwrap();
    assert_eq!(
        rows[0],
        vec![
            SqlValue::Integer(5),
            SqlValue::Integer(5),
            SqlValue::Text("AB".into()),
            SqlValue::Text("ab".into()),
            SqlValue::Text("bcd".into()),
            SqlValue::Integer(7),
            SqlValue::Integer(3),
            SqlValue::Null,
            SqlValue::Integer(1),
            SqlValue::Integer(3),
            SqlValue::Real(2.57),
        ]
    );
}

#[test]
fn round_clamps_its_digit_count() {
    let (mut sys, mut db) = setup();
    // SQLite clamps the digit count to [0, 30]: a huge count keeps the
    // value, a negative one rounds to an integer
    let rows = db
        .query(
            &mut sys,
            "SELECT round(1.5, 99999999999), round(1.25, -3), round(2.5, -99999999999), \
             round(0.123456789, 30), round(-1.5)",
        )
        .unwrap();
    assert_eq!(
        rows[0],
        vec![
            SqlValue::Real(1.5),
            SqlValue::Real(1.0),
            SqlValue::Real(3.0),
            SqlValue::Real(0.123456789),
            SqlValue::Real(-2.0),
        ]
    );
}

#[test]
fn negating_the_smallest_integer_wraps() {
    let (mut sys, mut db) = setup();
    // like the wrapping `+ - *` and `abs`, not a panic
    let rows = db
        .query(&mut sys, "SELECT -(-9223372036854775807 - 1)")
        .unwrap();
    assert_eq!(rows[0], vec![SqlValue::Integer(i64::MIN)]);
    db.execute(&mut sys, "CREATE TABLE t(v INTEGER)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (-9223372036854775807 - 1)")
        .unwrap();
    let rows = db.query(&mut sys, "SELECT -v, -(-v) FROM t").unwrap();
    assert_eq!(
        rows[0],
        vec![SqlValue::Integer(i64::MIN), SqlValue::Integer(i64::MIN)]
    );
}

#[test]
fn expressions_in_select() {
    let (mut sys, mut db) = setup();
    let rows = db
        .query(
            &mut sys,
            "SELECT 1 + 2 * 3, 10 / 4, 10.0 / 4, 'a' || 'b', 7 % 3",
        )
        .unwrap();
    assert_eq!(
        rows[0],
        vec![
            SqlValue::Integer(7),
            SqlValue::Integer(2),
            SqlValue::Real(2.5),
            SqlValue::Text("ab".into()),
            SqlValue::Integer(1),
        ]
    );
    // division by zero yields NULL
    let rows = db.query(&mut sys, "SELECT 1 / 0, 1 % 0").unwrap();
    assert_eq!(rows[0], vec![SqlValue::Null, SqlValue::Null]);
}

#[test]
fn affinity_applied_on_insert() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(i INTEGER, r REAL, s TEXT)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES ('42', 5, 99)")
        .unwrap();
    let rows = db.query(&mut sys, "SELECT i, r, s FROM t").unwrap();
    assert_eq!(
        rows[0],
        vec![
            SqlValue::Integer(42),
            SqlValue::Real(5.0),
            SqlValue::Text("99".into())
        ]
    );
}

#[test]
fn errors_name_the_object() {
    let (mut sys, mut db) = setup();
    assert!(matches!(
        db.query(&mut sys, "SELECT * FROM missing"),
        Err(SqlError::NoSuchTable(t)) if t == "missing"
    ));
    db.execute(&mut sys, "CREATE TABLE t(a INTEGER)").unwrap();
    assert!(matches!(
        db.query(&mut sys, "SELECT nope FROM t"),
        Err(SqlError::NoSuchColumn(_))
    ));
    assert!(matches!(
        db.execute(&mut sys, "CREATE TABLE t(b INTEGER)"),
        Err(SqlError::AlreadyExists(_))
    ));
}

#[test]
fn large_text_values_overflow_pages() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(v TEXT)").unwrap();
    let big = "z".repeat(10_000);
    db.execute(&mut sys, &format!("INSERT INTO t VALUES ('{big}')"))
        .unwrap();
    let rows = db.query(&mut sys, "SELECT length(v), v FROM t").unwrap();
    assert_eq!(rows[0][0], SqlValue::Integer(10_000));
    assert_eq!(rows[0][1], SqlValue::Text(big));
}

#[test]
fn thousand_row_workload_with_integrity() {
    let (mut sys, mut db) = setup();
    db.execute(
        &mut sys,
        "CREATE TABLE t(id INTEGER PRIMARY KEY, v INTEGER, s TEXT)",
    )
    .unwrap();
    db.execute(&mut sys, "CREATE INDEX iv ON t(v)").unwrap();
    db.execute(&mut sys, "BEGIN").unwrap();
    for i in 0..1000 {
        db.execute(
            &mut sys,
            &format!("INSERT INTO t VALUES ({i}, {}, 'row{i}')", (i * 37) % 100),
        )
        .unwrap();
    }
    db.execute(&mut sys, "COMMIT").unwrap();
    db.execute(&mut sys, "UPDATE t SET v = v + 1000 WHERE v < 50")
        .unwrap();
    db.execute(&mut sys, "DELETE FROM t WHERE id % 10 = 0")
        .unwrap();
    let rows = db.query(&mut sys, "SELECT count(*) FROM t").unwrap();
    assert_eq!(ints(&rows), vec![900]);
    let check = db.query(&mut sys, "PRAGMA integrity_check").unwrap();
    assert_eq!(
        check[0][0],
        SqlValue::Text("ok".into()),
        "indexes stay in sync"
    );
}

#[test]
fn alter_table_rename() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE old_name(v INTEGER)")
        .unwrap();
    db.execute(&mut sys, "CREATE INDEX iv ON old_name(v)")
        .unwrap();
    db.execute(&mut sys, "INSERT INTO old_name VALUES (42)")
        .unwrap();
    db.execute(&mut sys, "ALTER TABLE old_name RENAME TO new_name")
        .unwrap();
    assert!(matches!(
        db.query(&mut sys, "SELECT * FROM old_name"),
        Err(SqlError::NoSuchTable(_))
    ));
    let rows = db
        .query(&mut sys, "SELECT v FROM new_name WHERE v = 42")
        .unwrap();
    assert_eq!(ints(&rows), vec![42], "index follows the renamed table");
    // renaming onto an existing name fails
    db.execute(&mut sys, "CREATE TABLE other(x INTEGER)")
        .unwrap();
    assert!(matches!(
        db.execute(&mut sys, "ALTER TABLE new_name RENAME TO other"),
        Err(SqlError::AlreadyExists(_))
    ));
}

#[test]
fn alter_table_add_column() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(a INTEGER)").unwrap();
    db.execute(&mut sys, "INSERT INTO t VALUES (1), (2)")
        .unwrap();
    db.execute(&mut sys, "ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'new'")
        .unwrap();
    // old rows read the default, new rows store real values
    db.execute(&mut sys, "INSERT INTO t VALUES (3, 'explicit')")
        .unwrap();
    let rows = db.query(&mut sys, "SELECT a, b FROM t ORDER BY a").unwrap();
    assert_eq!(
        rows[0],
        vec![SqlValue::Integer(1), SqlValue::Text("new".into())]
    );
    assert_eq!(
        rows[2],
        vec![SqlValue::Integer(3), SqlValue::Text("explicit".into())]
    );
    // filtering on the added column works over old rows too
    let rows = db
        .query(&mut sys, "SELECT count(*) FROM t WHERE b = 'new'")
        .unwrap();
    assert_eq!(ints(&rows), vec![2]);
    // updating an old (short) row materialises the new width
    db.execute(&mut sys, "UPDATE t SET b = 'upd' WHERE a = 1")
        .unwrap();
    let rows = db.query(&mut sys, "SELECT b FROM t WHERE a = 1").unwrap();
    assert_eq!(rows[0][0], SqlValue::Text("upd".into()));
    let check = db.query(&mut sys, "PRAGMA integrity_check").unwrap();
    assert_eq!(check[0][0], SqlValue::Text("ok".into()));
}

#[test]
fn alter_add_column_constraints() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(a INTEGER)").unwrap();
    assert!(
        db.execute(&mut sys, "ALTER TABLE t ADD COLUMN a TEXT")
            .is_err(),
        "duplicate"
    );
    assert!(
        db.execute(&mut sys, "ALTER TABLE t ADD COLUMN b INTEGER NOT NULL")
            .is_err(),
        "NOT NULL without default"
    );
    assert!(
        db.execute(&mut sys, "ALTER TABLE t ADD COLUMN c INTEGER PRIMARY KEY")
            .is_err(),
        "no new primary keys"
    );
    db.execute(
        &mut sys,
        "ALTER TABLE t ADD COLUMN d INTEGER NOT NULL DEFAULT 0",
    )
    .unwrap();
}

#[test]
fn having_filters_groups() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE t(g INTEGER, v INTEGER)")
        .unwrap();
    db.execute(
        &mut sys,
        "INSERT INTO t VALUES (1,10),(1,20),(2,5),(3,1),(3,2),(3,3)",
    )
    .unwrap();
    let rows = db
        .query(
            &mut sys,
            "SELECT g, count(*) FROM t GROUP BY g HAVING count(*) >= 2 ORDER BY g",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], SqlValue::Integer(1));
    assert_eq!(rows[1][0], SqlValue::Integer(3));
    // HAVING over an aggregate not in the select list
    let rows = db
        .query(
            &mut sys,
            "SELECT g FROM t GROUP BY g HAVING sum(v) > 20 ORDER BY g",
        )
        .unwrap();
    assert_eq!(ints(&rows), vec![1]);
    // HAVING without aggregation is a misuse error
    assert!(db.query(&mut sys, "SELECT v FROM t HAVING v > 1").is_err());
}

#[test]
fn planner_uses_indexes_instead_of_scanning() {
    // Observable effect: a point query via an index touches far fewer
    // pages than a full scan of the same table.
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE big(a INTEGER, payload TEXT)")
        .unwrap();
    db.execute(&mut sys, "BEGIN").unwrap();
    for i in 0..3000 {
        db.execute(
            &mut sys,
            &format!("INSERT INTO big VALUES ({i}, '{}')", "p".repeat(100)),
        )
        .unwrap();
    }
    db.execute(&mut sys, "COMMIT").unwrap();
    db.execute(&mut sys, "CREATE INDEX ia ON big(a)").unwrap();

    let pages_touched = |db: &mut Database, sys: &mut System, sql: &str| {
        let before = db.pager_stats();
        db.query(sys, sql).unwrap();
        let after = db.pager_stats();
        (after.hits + after.misses) - (before.hits + before.misses)
    };
    let indexed = pages_touched(&mut db, &mut sys, "SELECT payload FROM big WHERE a = 1500");
    let scanned = pages_touched(
        &mut db,
        &mut sys,
        "SELECT payload FROM big WHERE payload = 'z'",
    );
    assert!(
        indexed * 10 < scanned,
        "index probe ({indexed} pages) must beat full scan ({scanned} pages)"
    );
    // rowid access beats even the index (no index btree walk)
    let by_rowid = pages_touched(
        &mut db,
        &mut sys,
        "SELECT payload FROM big WHERE rowid = 1500",
    );
    assert!(by_rowid <= indexed);
}

#[test]
fn join_probes_inner_table_by_index() {
    let (mut sys, mut db) = setup();
    db.execute(&mut sys, "CREATE TABLE outer_t(k INTEGER)")
        .unwrap();
    db.execute(&mut sys, "CREATE TABLE inner_t(k INTEGER, v TEXT)")
        .unwrap();
    db.execute(&mut sys, "CREATE INDEX ik ON inner_t(k)")
        .unwrap();
    db.execute(&mut sys, "BEGIN").unwrap();
    for i in 0..40 {
        db.execute(&mut sys, &format!("INSERT INTO outer_t VALUES ({i})"))
            .unwrap();
    }
    for i in 0..2000 {
        db.execute(
            &mut sys,
            &format!("INSERT INTO inner_t VALUES ({}, 'v{i}')", i % 500),
        )
        .unwrap();
    }
    db.execute(&mut sys, "COMMIT").unwrap();
    let before = db.pager_stats();
    let rows = db
        .query(
            &mut sys,
            "SELECT count(*) FROM outer_t o, inner_t i WHERE i.k = o.k",
        )
        .unwrap();
    let after = db.pager_stats();
    assert_eq!(ints(&rows), vec![160], "40 outer keys × 4 matches each");
    let touched = (after.hits + after.misses) - (before.hits + before.misses);
    // nested loop WITHOUT the index would touch ~40 × full-table pages
    // (tens of thousands); with probes it stays small
    assert!(
        touched < 5_000,
        "join touched {touched} pages — index probe not used?"
    );
}
